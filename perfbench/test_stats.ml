(* Tests of the benchmark's own statistics. *)

module Stats = Perfbench_stats.Stats

let close = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_tail_rank () =
  (* 36 pairs: the 26th smallest is the highest sample with ten beyond *)
  match Stats.tail (range 36) with
  | None -> Alcotest.fail "36 samples must give a tail"
  | Some t ->
    Alcotest.check close "value" 26.0 t.Stats.value;
    Alcotest.check close "percentile" (100.0 *. 26.0 /. 36.0) t.Stats.percentile;
    Alcotest.(check int) "beyond" 10 t.Stats.beyond;
    Alcotest.(check int) "samples" 36 t.Stats.samples

let test_tail_unsorted_input () =
  let xs = List.rev (range 20) @ [ 0.5 ] in
  match Stats.tail xs with
  | None -> Alcotest.fail "21 samples must give a tail"
  | Some t ->
    Alcotest.check close "value" 10.0 t.Stats.value;
    Alcotest.(check int) "exactly ten beyond" 10
      (List.length (List.filter (fun x -> x > t.Stats.value) xs))

let test_tail_too_few () =
  Alcotest.(check bool)
    "ten samples: no percentile has ten beyond" true
    (Stats.tail (range 10) = None);
  match Stats.tail (range 11) with
  | None -> Alcotest.fail "11 samples must give a tail"
  | Some t ->
    Alcotest.check close "the minimum" 1.0 t.Stats.value;
    Alcotest.check close "percentile" (100.0 /. 11.0) t.Stats.percentile

let test_geomean () =
  Alcotest.check close "two samples" 10.0 (Stats.geomean [ 1.0; 100.0 ]);
  Alcotest.check close "constant" 0.25 (Stats.geomean [ 0.25; 0.25; 0.25 ]);
  (* each sample weighs the same: one huge value moves it by its root *)
  Alcotest.check close "balanced" 1.0 (Stats.geomean [ 0.01; 100.0; 1.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_per_key_medians () =
  let samples = [ (1, 3.0); (0, 5.0); (1, 1.0); (1, 2.0); (0, 7.0); (2, 4.0) ] in
  Alcotest.(check (list (pair int close)))
    "one median per pair, keys ascending"
    [ (0, 6.0); (1, 2.0); (2, 4.0) ]
    (Stats.per_key_medians samples)

let test_per_key_outlier () =
  (* one slow pass of a pair does not move that pair's value *)
  let samples = [ (0, 1.0); (0, 1.1); (0, 9.0) ] in
  Alcotest.(check (list (pair int close))) "median" [ (0, 1.1) ] (Stats.per_key_medians samples)

let mk id ?(parent = -1) name start stop words =
  { Stats.id; name; op = 0; parent; start; stop; words }

let test_self_time () =
  let spans =
    [
      mk 0 "op" 0.0 10.0 100.0;
      mk 1 ~parent:0 "parse" 1.0 3.0 10.0;
      mk 2 ~parent:0 "verify" 4.0 8.0 50.0;
      mk 3 ~parent:2 "inner" 5.0 6.0 5.0;
    ]
  in
  let selfs = Stats.self_times spans in
  let get n = List.assoc n selfs in
  Alcotest.check close "op self = 10 - 2 - 4" 4.0 (get "op").Stats.self_s;
  Alcotest.check close "verify self = 4 - 1" 3.0 (get "verify").Stats.self_s;
  Alcotest.check close "leaf self = duration" 2.0 (get "parse").Stats.self_s;
  Alcotest.check close "op words" 40.0 (get "op").Stats.self_words;
  Alcotest.check close "verify words" 45.0 (get "verify").Stats.self_words;
  let total = List.fold_left (fun acc (_, s) -> acc +. s.Stats.self_s) 0.0 selfs in
  Alcotest.check close "self times add up to the root span" 10.0 total

let test_self_time_overlap () =
  (* overlapping or out-of-parent children are counted once, clipped *)
  let spans =
    [
      mk 0 "op" 0.0 10.0 0.0;
      mk 1 ~parent:0 "a" 1.0 4.0 0.0;
      mk 2 ~parent:0 "b" 3.0 5.0 0.0;
      mk 3 ~parent:0 "c" 9.0 12.0 0.0;
    ]
  in
  let op = List.assoc "op" (Stats.self_times spans) in
  Alcotest.check close "10 - [1,5] - [9,10]" 5.0 op.Stats.self_s

let test_self_time_by_name () =
  let spans = [ mk 0 "op" 0.0 2.0 0.0; mk 1 "op" 5.0 6.0 0.0; mk 2 ~parent:1 "x" 5.0 5.5 0.0 ] in
  let s = List.assoc "op" (Stats.self_times spans) in
  Alcotest.check close "summed over spans of one name" 2.5 s.Stats.self_s;
  Alcotest.(check int) "count" 2 s.Stats.count

let test_interleave_counts () =
  let pass = Stats.interleave [ ([ "h1"; "h2" ], 1); ([ "a"; "b"; "c" ], 3) ] in
  let count x = List.length (List.filter (( = ) x) pass) in
  Alcotest.(check int) "length" 11 (List.length pass);
  Alcotest.(check (list int)) "heavy once, light three times" [ 1; 1; 3; 3; 3 ]
    (List.map count [ "h1"; "h2"; "a"; "b"; "c" ])

let test_interleave_spread () =
  (* each heavy item sits in its own half of the pass, and the light
     items' three sweeps run in order around them *)
  Alcotest.(check (list string))
    "evenly merged"
    [ "a"; "b"; "h1"; "c"; "a"; "b"; "c"; "a"; "h2"; "b"; "c" ]
    (Stats.interleave [ ([ "h1"; "h2" ], 1); ([ "a"; "b"; "c" ], 3) ]);
  Alcotest.(check (list string)) "one group" [ "a"; "b"; "a"; "b" ]
    (Stats.interleave [ ([ "a"; "b" ], 2) ]);
  Alcotest.(check (list string)) "empty group" [ "a" ] (Stats.interleave [ ([], 1); ([ "a" ], 1) ])

let test_decided_frac () =
  Alcotest.check close "all decided" 1.0 (Stats.decided_frac ~decided:36 ~attempted:36);
  Alcotest.check close "two unknown" (34.0 /. 36.0) (Stats.decided_frac ~decided:34 ~attempted:36);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.decided_frac: nothing attempted") (fun () ->
      ignore (Stats.decided_frac ~decided:0 ~attempted:0))

let test_rel_spread () =
  Alcotest.check close "repeats exactly" 0.0 (Stats.rel_spread [ 5.0; 5.0; 5.0 ]);
  Alcotest.check close "(max - min) / median" 0.5 (Stats.rel_spread [ 9.0; 10.0; 14.0 ])

let () =
  Alcotest.run "perfbench-stats"
    [
      ("median", [ Alcotest.test_case "odd and even" `Quick test_median ]);
      ( "tail",
        [
          Alcotest.test_case "ten beyond" `Quick test_tail_rank;
          Alcotest.test_case "unsorted input" `Quick test_tail_unsorted_input;
          Alcotest.test_case "too few samples" `Quick test_tail_too_few;
        ] );
      ("geomean", [ Alcotest.test_case "definition" `Quick test_geomean ]);
      ( "per-pair",
        [
          Alcotest.test_case "medians across passes" `Quick test_per_key_medians;
          Alcotest.test_case "one slow pass" `Quick test_per_key_outlier;
        ] );
      ( "self time",
        [
          Alcotest.test_case "children subtracted" `Quick test_self_time;
          Alcotest.test_case "overlap and clipping" `Quick test_self_time_overlap;
          Alcotest.test_case "summed by name" `Quick test_self_time_by_name;
        ] );
      ( "interleave",
        [
          Alcotest.test_case "sweeps per group" `Quick test_interleave_counts;
          Alcotest.test_case "evenly merged" `Quick test_interleave_spread;
        ] );
      ("decided_frac", [ Alcotest.test_case "ratio" `Quick test_decided_frac ]);
      ("spread", [ Alcotest.test_case "relative" `Quick test_rel_spread ]);
    ]
