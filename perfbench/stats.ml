(* Summary statistics of the benchmark, kept free of any timing or I/O so
   the test suite can pin every rule down on hand-made inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Geometric mean: every sample weighs the same in log space, so one large
   pair cannot dominate the way it dominates an arithmetic mean. *)
let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    if List.exists (fun x -> x <= 0.0) xs then invalid_arg "Stats.geomean: non-positive sample";
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

type tail = { value : float; percentile : float; beyond : int; samples : int }

(* The highest percentile that still has at least ten samples strictly
   beyond it: in ascending order, the sample with exactly ten samples
   after it.  Its percentile is the share of samples at or below it.
   [None] when there are not enough samples for any percentile to
   qualify. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    let i = n - 1 - beyond in
    Some
      {
        value = a.(i);
        percentile = 100.0 *. float_of_int (i + 1) /. float_of_int n;
        beyond;
        samples = n;
      }

(* Aggregate repeated measurements of the same key (one pair seen in
   several passes) to one value per key: the median of that key's samples.
   Keys come back in ascending order. *)
let per_key_medians samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      let prev = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k (v :: prev))
    samples;
  Hashtbl.fold (fun k vs acc -> (k, median vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One pass of the closed loop, from groups (items, sweeps): each group's
   items run [sweeps] times over, and the groups are merged so that every
   group is spread evenly over the whole pass.  Element m of a group's
   sequence (length n * sweeps) sits at (m + 0.5) / (n * sweeps) of the
   pass; ties keep group order.  A pass thus samples a slow group and each
   repetition of a fast one throughout, not in one stretch of host time. *)
let interleave groups =
  List.concat
    (List.mapi
       (fun g (items, sweeps) ->
         let n = List.length items in
         let len = float_of_int (n * sweeps) in
         List.concat (List.init sweeps (fun s -> List.mapi (fun i x -> ((s * n) + i, x)) items))
         |> List.map (fun (m, x) -> ((float_of_int m +. 0.5) /. len, g, m, x)))
       groups)
  |> List.stable_sort (fun (a, g, m, _) (b, h, k, _) -> compare (a, g, m) (b, h, k))
  |> List.map (fun (_, _, _, x) -> x)

let decided_frac ~decided ~attempted =
  if attempted <= 0 then invalid_arg "Stats.decided_frac: nothing attempted";
  float_of_int decided /. float_of_int attempted

(* Relative spread of repeated readings: (max - min) / median. *)
let rel_spread xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = sorted xs in
    let m = median xs in
    if m = 0.0 then 0.0 else (a.(Array.length a - 1) -. a.(0)) /. m

(* --- spans ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  op : int;  (** operation the span belongs to; -1 for set-up *)
  parent : int;  (** id of the enclosing span; -1 at the top *)
  start : float;
  stop : float;
  words : float;  (** minor-heap words allocated between start and stop *)
}

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b)) else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type self = { self_s : float; self_words : float; count : int }

(* Self time of each span name: a span's duration minus the part of its
   interval that its direct children cover, summed over every span of that
   name.  Allocation is attributed the same way (a child's words are
   subtracted from its parent's).  Names come back in ascending order. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = try Hashtbl.find children s.parent with Not_found -> [] in
        Hashtbl.replace children s.parent (s :: prev))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids = try Hashtbl.find children s.id with Not_found -> [] in
      let inner = covered ~lo:s.start ~hi:s.stop (List.map (fun c -> (c.start, c.stop)) kids) in
      let kid_words = List.fold_left (fun w c -> w +. c.words) 0.0 kids in
      let prev =
        try Hashtbl.find acc s.name
        with Not_found -> { self_s = 0.0; self_words = 0.0; count = 0 }
      in
      Hashtbl.replace acc s.name
        {
          self_s = prev.self_s +. (s.stop -. s.start -. inner);
          self_words = prev.self_words +. (s.words -. kid_words);
          count = prev.count + 1;
        })
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare
