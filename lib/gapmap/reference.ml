(* Obviously-correct gap map over a sorted association list. This is the
   executable specification: the B+tree implementation is property-tested
   against it. Performance is O(n) per operation, which is fine for tests and
   for the paper-scale simulations (directories of 100–10 000 entries). *)

open Repdir_key
open Gapmap_intf

type stored = {
  key : Key.t;
  mutable version : Version.t;
  mutable value : value;
  mutable gap_after : Version.t; (* version of the gap following this entry *)
}

type t = {
  mutable low_gap : Version.t; (* gap between LOW and the first entry *)
  mutable items : stored list; (* ascending key order *)
}

let create () = { low_gap = Version.lowest; items = [] }
let size t = List.length t.items
let mem t k = List.exists (fun s -> Key.equal s.key k) t.items

let sentinel_lookup = Present { version = Version.lowest; value = "" }

let lookup t bound =
  match bound with
  | Bound.Low | Bound.High -> sentinel_lookup
  | Bound.Key k ->
      let rec scan gap_before = function
        | [] -> Absent { gap_version = gap_before }
        | s :: rest ->
            let c = Key.compare s.key k in
            if c = 0 then Present { version = s.version; value = s.value }
            else if c < 0 then scan s.gap_after rest
            else Absent { gap_version = gap_before }
      in
      scan t.low_gap t.items

let predecessor t bound =
  if Bound.equal bound Bound.Low then invalid_arg "Gapmap.predecessor: LOW";
  let rec scan best = function
    | [] -> best
    | s :: rest ->
        if Bound.compare (Bound.Key s.key) bound < 0 then scan (Some s) rest else best
  in
  match scan None t.items with
  | Some s ->
      { key = Bound.Key s.key; entry_version = Some s.version; gap_version = s.gap_after }
  | None -> { key = Bound.Low; entry_version = None; gap_version = t.low_gap }

let successor t bound =
  if Bound.equal bound Bound.High then invalid_arg "Gapmap.successor: HIGH";
  (* The gap between [bound] and its successor is the gap following the
     largest entry at or below [bound] (or the LOW gap if there is none). *)
  let rec scan gap_before = function
    | [] -> ({ key = Bound.High; entry_version = None; gap_version = gap_before } : neighbor)
    | s :: rest ->
        if Bound.compare (Bound.Key s.key) bound <= 0 then scan s.gap_after rest
        else
          { key = Bound.Key s.key; entry_version = Some s.version; gap_version = gap_before }
  in
  scan t.low_gap t.items

let insert t k version value =
  (* A fresh entry splits the gap containing it; both halves keep the old
     gap's version, so the new entry's [gap_after] is simply the version of
     the gap it lands in, and its predecessor's [gap_after] is unchanged. *)
  let rec go gap_before = function
    | [] -> [ { key = k; version; value; gap_after = gap_before } ]
    | s :: rest as items ->
        let c = Key.compare k s.key in
        if c = 0 then begin
          s.version <- version;
          s.value <- value;
          items
        end
        else if c < 0 then { key = k; version; value; gap_after = gap_before } :: items
        else s :: go s.gap_after rest
  in
  t.items <- go t.low_gap t.items

let endpoint_exists t = function
  | Bound.Low | Bound.High -> true
  | Bound.Key k -> mem t k

let coalesce t ~lo ~hi version =
  if Bound.compare lo hi >= 0 then invalid_arg "Gapmap.coalesce: lo >= hi";
  if not (endpoint_exists t lo) then raise (Missing_endpoint lo);
  if not (endpoint_exists t hi) then raise (Missing_endpoint hi);
  let inside s =
    Bound.compare lo (Bound.Key s.key) < 0 && Bound.compare (Bound.Key s.key) hi < 0
  in
  let removed = List.length (List.filter inside t.items) in
  t.items <- List.filter (fun s -> not (inside s)) t.items;
  (match lo with
  | Bound.Low -> t.low_gap <- version
  | Bound.Key k ->
      let s = List.find (fun s -> Key.equal s.key k) t.items in
      s.gap_after <- version
  | Bound.High -> assert false);
  removed

let remove t k =
  if mem t k then begin
    t.items <- List.filter (fun s -> not (Key.equal s.key k)) t.items;
    true
  end
  else false

let set_gap_after t b version =
  match b with
  | Bound.High -> invalid_arg "Gapmap.set_gap_after: HIGH"
  | Bound.Low -> t.low_gap <- version
  | Bound.Key k -> (
      match List.find_opt (fun s -> Key.equal s.key k) t.items with
      | Some s -> s.gap_after <- version
      | None -> raise (Missing_endpoint b))

let entries t = List.map (fun s -> (s.key, s.version, s.value)) t.items

let gaps t =
  let rec go left gap_version = function
    | [] -> [ (left, Bound.High, gap_version) ]
    | s :: rest -> (left, Bound.Key s.key, gap_version) :: go (Bound.Key s.key) s.gap_after rest
  in
  go Bound.Low t.low_gap t.items

let between ~lo ~hi s =
  Bound.compare lo (Bound.Key s.key) < 0 && Bound.compare (Bound.Key s.key) hi < 0

let count_strictly_between t ~lo ~hi = List.length (List.filter (between ~lo ~hi) t.items)

let entries_between t ~lo ~hi =
  List.filter_map
    (fun s -> if between ~lo ~hi s then Some (s.key, s.version, s.value, s.gap_after) else None)
    t.items

(* Hashes are recomputed on every call: the model caches nothing, so it
   checks the B+tree's cached sums rather than sharing their bugs. *)
let summary_between t ~lo ~hi =
  List.fold_left
    (fun acc s ->
      if between ~lo ~hi s then
        {
          s_sum = acc.s_sum + entry_hash s.key s.version s.value s.gap_after;
          s_count = acc.s_count + 1;
        }
      else acc)
    { s_sum = 0; s_count = 0 } t.items

let key_at_rank t ~lo ~hi i =
  match List.nth_opt (List.filter (between ~lo ~hi) t.items) i with
  | Some s -> s.key
  | None -> invalid_arg "Gapmap.key_at_rank: rank out of range"
  | exception Invalid_argument _ -> invalid_arg "Gapmap.key_at_rank: rank out of range"

let to_image (t : t) = Marshal.to_string t []
let of_image s : t = Marshal.from_string s 0

let check_invariants t =
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        if Key.compare a.key b.key >= 0 then
          Error
            (Format.asprintf "entries out of order: %a >= %a" Key.pp a.key Key.pp b.key)
        else ordered rest
    | _ -> Ok ()
  in
  ordered t.items

let pp ppf t =
  Format.fprintf ppf "LOW -%a-" Version.pp t.low_gap;
  List.iter
    (fun s -> Format.fprintf ppf " %a:%a -%a-" Key.pp s.key Version.pp s.version Version.pp s.gap_after)
    t.items;
  Format.fprintf ppf " HIGH"

include Gapmap_intf.Sync_ops (struct
  type nonrec t = t

  let create = create
  let size = size
  let mem = mem
  let lookup = lookup
  let predecessor = predecessor
  let successor = successor
  let insert = insert
  let coalesce = coalesce
  let remove = remove
  let set_gap_after = set_gap_after
  let entries = entries
  let gaps = gaps
  let count_strictly_between = count_strictly_between
  let entries_between = entries_between
  let summary_between = summary_between
  let key_at_rank = key_at_rank
  let to_image = to_image
  let of_image = of_image
  let check_invariants = check_invariants
  let pp = pp
end)
