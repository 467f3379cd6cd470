(* Benchmark-circuit tests: every generator produces a well-formed netlist
   with the intended behaviour. *)

let bit frame name = Int64.logand 1L (List.assoc name frame)

let test_all_valid () =
  List.iter
    (fun e ->
      let c = e.Circuits.Suite.build () in
      match Netlist.validate c with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (e.Circuits.Suite.name ^ ": " ^ msg))
    Circuits.Suite.suite

let test_counter_counts () =
  let c = Circuits.Counter.binary 4 in
  (* enable always on, no reset: after k steps the count is k *)
  let frames = List.init 10 (fun _ -> [| -1L; 0L |]) in
  let outs = Netlist.Sim.run c frames in
  List.iteri
    (fun k frame ->
      let value =
        List.fold_left
          (fun acc i ->
            acc lor (Int64.to_int (bit frame (Printf.sprintf "count%d" i)) lsl i))
          0 [ 0; 1; 2; 3 ]
      in
      Alcotest.(check int) (Printf.sprintf "count at t=%d" k) (k mod 16) value)
    outs

let test_counter_reset () =
  let c = Circuits.Counter.binary 4 in
  (* count up 3, then reset *)
  let frames = [ [| -1L; 0L |]; [| -1L; 0L |]; [| -1L; 0L |]; [| -1L; -1L |]; [| 0L; 0L |] ] in
  let outs = Netlist.Sim.run c frames in
  let last = List.nth outs 4 in
  List.iter
    (fun i ->
      Alcotest.(check int64) (Printf.sprintf "bit %d clear" i) 0L
        (bit last (Printf.sprintf "count%d" i)))
    [ 0; 1; 2; 3 ]

let test_modulo_wraps () =
  let c = Circuits.Counter.modulo 5 in
  let frames = List.init 12 (fun _ -> [| -1L |]) in
  let outs = Netlist.Sim.run c frames in
  List.iteri
    (fun k frame ->
      let expect = k mod 5 in
      List.iter
        (fun v ->
          Alcotest.(check int64)
            (Printf.sprintf "phase%d at t=%d" v k)
            (if v = expect then 1L else 0L)
            (bit frame (Printf.sprintf "phase%d" v)))
        [ 0; 1; 2; 3; 4 ])
    outs

let test_ring_matches_modulo () =
  let a = Circuits.Counter.modulo 7 and b = Circuits.Counter.ring 7 in
  Alcotest.(check (option int)) "same phase behaviour" None (Test_util.seq_differ a b)

let test_detector_encodings_agree () =
  let pattern = [ true; false; true; true ] in
  let a = Circuits.Fsm.detector ~onehot:false pattern in
  let b = Circuits.Fsm.detector ~onehot:true pattern in
  Alcotest.(check (option int)) "same detector behaviour" None
    (Test_util.seq_differ ~n_frames:128 a b)

let test_detector_finds_pattern () =
  let c = Circuits.Fsm.detector ~onehot:true [ true; true; false ] in
  (* feed 1 1 0: found must rise exactly after the third symbol *)
  let w b = if b then [| 1L |] else [| 0L |] in
  let outs = Netlist.Sim.run c [ w true; w true; w false; w false ] in
  let founds = List.map (fun f -> bit f "found") outs in
  Alcotest.(check (list int64)) "found trace" [ 0L; 0L; 0L; 1L ] founds

let test_traffic_cycle () =
  let c = Circuits.Fsm.traffic () in
  (* car arrives, then timer pulses: lights must cycle NS -> EW -> NS *)
  let frames =
    [ [| 1L; 0L |]; (* car_ew: go yellow *) [| 0L; 1L |]; (* timer: green EW *)
      [| 0L; 1L |]; (* timer: yellow EW *) [| 0L; 1L |] (* timer: green NS *) ]
  in
  let outs = Netlist.Sim.run c frames in
  let state frame =
    List.find_map
      (fun name -> if bit frame name = 1L then Some name else None)
      [ "light_ns_green"; "light_ns_yellow"; "light_ew_green"; "light_ew_yellow" ]
  in
  Alcotest.(check (list (option string)))
    "light sequence"
    [ Some "light_ns_green"; Some "light_ns_yellow"; Some "light_ew_green";
      Some "light_ew_yellow" ]
    (List.map state outs)

let test_alu_ops () =
  let c = Circuits.Pipeline.alu 4 in
  let frame a b op =
    [| Int64.of_int (a land 1); Int64.of_int ((a lsr 1) land 1);
       Int64.of_int ((a lsr 2) land 1); Int64.of_int ((a lsr 3) land 1);
       Int64.of_int (b land 1); Int64.of_int ((b lsr 1) land 1);
       Int64.of_int ((b lsr 2) land 1); Int64.of_int ((b lsr 3) land 1);
       Int64.of_int (op land 1); Int64.of_int ((op lsr 1) land 1) |]
  in
  let result outs t =
    let f = List.nth outs t in
    List.fold_left
      (fun acc i -> acc lor (Int64.to_int (bit f (Printf.sprintf "res%d" i)) lsl i))
      0 [ 0; 1; 2; 3 ]
  in
  (* two-stage pipeline: the result of the frame-0 operands appears at t=2 *)
  let check_op op expect =
    let outs = Netlist.Sim.run c [ frame 12 10 op; frame 0 0 0; frame 0 0 0 ] in
    Alcotest.(check int) (Printf.sprintf "op %d" op) expect (result outs 2)
  in
  check_op 0 (12 land 10);
  check_op 1 (12 lor 10);
  check_op 2 (12 lxor 10);
  check_op 3 ((12 + 10) land 15)

let test_arbiter_grants () =
  let c = Circuits.Arbiter.round_robin 4 in
  (* only requester 2 asks: it gets the grant *)
  let outs = Netlist.Sim.run c [ [| 0L; 0L; 1L; 0L |] ] in
  let f = List.nth outs 0 in
  Alcotest.(check int64) "gnt2" 1L (bit f "gnt2");
  Alcotest.(check int64) "gnt0" 0L (bit f "gnt0");
  (* everyone asks: exactly one grant per cycle, rotating *)
  let frames = List.init 6 (fun _ -> [| -1L; -1L; -1L; -1L |]) in
  let outs = Netlist.Sim.run c frames in
  List.iter
    (fun f ->
      let grants =
        List.length (List.filter (fun i -> bit f (Printf.sprintf "gnt%d" i) = 1L) [ 0; 1; 2; 3 ])
      in
      Alcotest.(check int) "one grant" 1 grants)
    outs

let test_lfsr_period () =
  (* a maximal 4-bit LFSR (taps 3,2) visits 15 states before repeating *)
  let c = Circuits.Lfsr.fibonacci ~taps:[ 3; 2 ] 4 in
  let frames = List.init 16 (fun _ -> [| 1L |]) in
  let sim = Netlist.Sim.create c in
  Netlist.Sim.reset sim;
  let states = ref [] in
  List.iter
    (fun f ->
      Netlist.Sim.eval_comb sim f;
      let state =
        List.fold_left
          (fun acc i ->
            match Netlist.net_of_name c (Printf.sprintf "s%d" i) with
            | Some net -> acc lor (Int64.to_int (Int64.logand 1L (Netlist.Sim.value sim net)) lsl i)
            | None -> acc)
          0 [ 0; 1; 2; 3 ]
      in
      states := state :: !states;
      Netlist.Sim.step sim)
    frames;
  let distinct = List.sort_uniq compare !states in
  Alcotest.(check int) "period 15" 15 (List.length distinct)

let test_crc_known_value () =
  (* CRC register after feeding a known bit string must match a software
     computation of the same shift/xor recurrence *)
  let poly = 0x8005 and n = 16 in
  let c = Circuits.Lfsr.crc ~poly n in
  let bits = [ true; false; true; true; false; false; true; true; true; false ] in
  let frames = List.map (fun b -> [| (if b then 1L else 0L) |]) bits in
  let sim = Netlist.Sim.create c in
  Netlist.Sim.reset sim;
  List.iter
    (fun f ->
      Netlist.Sim.eval_comb sim f;
      Netlist.Sim.step sim)
    frames;
  (* software model *)
  let reg = ref 0 in
  List.iter
    (fun b ->
      let fb = ((!reg lsr (n - 1)) land 1) lxor (if b then 1 else 0) in
      reg := ((!reg lsl 1) land ((1 lsl n) - 1)) lor fb;
      if fb = 1 then reg := !reg lxor (poly land ((1 lsl n) - 1) land lnot 1))
    bits;
  (* read hardware register *)
  let hw = ref 0 in
  Netlist.Sim.eval_comb sim [| 0L |];
  for i = 0 to n - 1 do
    match Netlist.net_of_name c (Printf.sprintf "c%d" i) with
    | Some net -> hw := !hw lor (Int64.to_int (Int64.logand 1L (Netlist.Sim.value sim net)) lsl i)
    | None -> ()
  done;
  Alcotest.(check int) "crc register" !reg !hw

let test_bus_controller_behaviour () =
  let c = Circuits.Composite.bus_controller ~timer_bits:2 ~channels:2 ~history:2 () in
  Alcotest.(check bool) "valid" true (Netlist.validate c = Ok ());
  (* run always on, both requests: tick rises every 4 cycles, grants follow
     the token which starts at channel 0 *)
  let frames = List.init 9 (fun _ -> [| -1L; -1L; -1L |]) in
  let outs = Netlist.Sim.run c frames in
  let tick_at t = bit (List.nth outs t) "tick" in
  Alcotest.(check int64) "tick at t=3" 1L (tick_at 3);
  Alcotest.(check int64) "no tick at t=2" 0L (tick_at 2);
  Alcotest.(check int64) "tick at t=7" 1L (tick_at 7);
  (* exactly one grant per cycle when both request *)
  List.iter
    (fun f ->
      let g0 = bit f "gnt0" and g1 = bit f "gnt1" in
      Alcotest.(check int64) "one grant" 1L (Int64.add g0 g1))
    outs;
  (* token moves after the first tick: grant switches from 0 to 1 *)
  Alcotest.(check int64) "gnt0 first" 1L (bit (List.nth outs 0) "gnt0");
  Alcotest.(check int64) "gnt1 after tick" 1L (bit (List.nth outs 4) "gnt1")

let test_transmitter_behaviour () =
  let c = Circuits.Composite.transmitter ~payload_bits:4 ~crc_bits:4 ~poly:0x3 () in
  Alcotest.(check bool) "valid" true (Netlist.validate c = Ok ());
  (* start a transmission; busy must rise next cycle and the payload must
     emerge on dout after payload_bits cycles of shifting *)
  let mk din start = [| din; start |] in
  let frames =
    [ mk 0L 1L; mk 1L 0L; mk 1L 0L; mk 0L 0L; mk 1L 0L; mk 0L 0L; mk 0L 0L; mk 0L 0L ]
  in
  let outs = Netlist.Sim.run c frames in
  Alcotest.(check int64) "idle at t=0" 0L (bit (List.nth outs 0) "busy");
  Alcotest.(check int64) "busy at t=1" 1L (bit (List.nth outs 1) "busy")

let test_fig2_equivalent_by_simulation () =
  let spec, impl = Circuits.Fig2.pair () in
  Alcotest.(check (option int)) "fig2 behaviour" None (Test_util.aig_seq_differ spec impl);
  Alcotest.(check bool) "fig2 exact" true (Test_util.bounded_seq_equiv spec impl)

(* The benchmark's implementations: MD5 of the AIGER text of every suite
   entry's retime+opt implementation at seeds 1 and 2.  A transform
   change that alters any of them silently changes the workloads every
   performance comparison runs on; such a change must update these
   digests on purpose. *)
let retime_opt_digests =
  [
    ("ctr8", 1, "dde90cdb47d1e327bb7312bae5278ba9");
    ("ctr8", 2, "54353eefc523a348294a9df07a68dfb8");
    ("ctr16", 1, "23919f585b14a9f0933d252eb5af63d3");
    ("ctr16", 2, "56c91c75ccc3a5df2ec7047668951f6d");
    ("ctr32", 1, "58e5f29bb1ca163591116bb10eb98148");
    ("ctr32", 2, "a37f80763d30d8dc62997d5c54d12da1");
    ("gray12", 1, "db06f615cf8990f6f11cc7a31ff990cb");
    ("gray12", 2, "e84464bcc624021caea1e702d24fdaff");
    ("mod10", 1, "552d57fe5068b2bda65d324c1b8f8fae");
    ("mod10", 2, "332c13e84e269ee72025fa0e8f3ca6c1");
    ("lfsr16", 1, "6974c7a3eb181265bcfea8c366e3d204");
    ("lfsr16", 2, "abc40b281b6685ba06734ad1385446bd");
    ("crc16", 1, "a92019b5fba9f703243bfd6e8289a271");
    ("crc16", 2, "18bbea13d43cad765b336963e3022483");
    ("crc32", 1, "b39d0b0968cdbe2e203825483f9e73b6");
    ("crc32", 2, "26e9f7fc0b0f58ce5ee6b535e0ffcec9");
    ("shift24", 1, "3cd93b0a1efc10a16fb7e0fbdcd80206");
    ("shift24", 2, "fd061f2d3bcede45ec5b9f55ee26fab1");
    ("traffic", 1, "885fafc5e1613e6e3276c3a36d6563a8");
    ("traffic", 2, "6e022021d78d79734dc17c4f2b78a0a5");
    ("det-bin", 1, "6cfcb21d9096d697f812b55a1656e8a8");
    ("det-bin", 2, "141d3b4fd3608d040e0cad670a995ff5");
    ("alu4", 1, "2b74c9c967b109dd22f26fed0ade86e3");
    ("alu4", 2, "288767d8fa36da5744d0b17a51e1d5c8");
    ("alu8", 1, "a2e568750db019a2dca37d6a67734cb8");
    ("alu8", 2, "8443fcc51559ac6b29e4952493a1d8eb");
    ("arb4", 1, "b31453393798846fe3e9caf7835bd1fb");
    ("arb4", 2, "ffb4493e49e8d0680e3b4c244be68e94");
    ("arb6", 1, "ef6735888cf44918c5a5f119ff5a3409");
    ("arb6", 2, "1736148af67be56b9971032eb23a7e08");
    ("bus", 1, "09d17d920d574fff43a7375ba540578a");
    ("bus", 2, "4292aee01dcf8cd09ff65bc37a6ca64e");
    ("tx", 1, "0aed741a400a57ad2ee9f8187d764927");
    ("tx", 2, "779bb4a65a3f71c7c0716d9eeda12e3e");
    ("ffde", 1, "ac5c0b39ed7fe8b89e589060f18e3f5e");
    ("ffde", 2, "7fd43e8648b6336c0fc2f14c3f8ff08a");
    ("gclk-div", 1, "e3fad86494f6e1b121bdf79d09126265");
    ("gclk-div", 2, "6d754d0ccede695f89d61e33d77ea8b0");
    ("rst-sync", 1, "cf11ba7e9905f7bc4a6bf980bf1450f5");
    ("rst-sync", 2, "aa448119e42679096b5e025033b157b0");
    ("rst-async", 1, "56c200cfd13e3142785f9bfc6a358a51");
    ("rst-async", 2, "d645b764fe5dab7424961f963814e22a");
  ]

let test_retime_opt_pinned () =
  List.iter
    (fun (name, seed, expected) ->
      match Circuits.Suite.find name with
      | None -> Alcotest.failf "suite entry %s is gone" name
      | Some entry ->
        let impl =
          Circuits.Suite.(implementation ~recipe:Retime_opt ~seed (aig_of entry))
        in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d" name seed)
          expected
          (Digest.to_hex (Digest.string (Aig.Aiger.to_string impl))))
    retime_opt_digests;
  Alcotest.(check int) "every entry pinned"
    (2 * List.length Circuits.Suite.suite)
    (List.length retime_opt_digests)

let suite =
  [ Alcotest.test_case "all suite entries valid" `Quick test_all_valid;
    Alcotest.test_case "counter counts" `Quick test_counter_counts;
    Alcotest.test_case "counter reset" `Quick test_counter_reset;
    Alcotest.test_case "modulo wraps" `Quick test_modulo_wraps;
    Alcotest.test_case "ring matches modulo" `Quick test_ring_matches_modulo;
    Alcotest.test_case "detector encodings agree" `Quick test_detector_encodings_agree;
    Alcotest.test_case "detector finds pattern" `Quick test_detector_finds_pattern;
    Alcotest.test_case "traffic cycle" `Quick test_traffic_cycle;
    Alcotest.test_case "alu ops" `Quick test_alu_ops;
    Alcotest.test_case "arbiter grants" `Quick test_arbiter_grants;
    Alcotest.test_case "lfsr period" `Quick test_lfsr_period;
    Alcotest.test_case "crc known value" `Quick test_crc_known_value;
    Alcotest.test_case "bus controller" `Quick test_bus_controller_behaviour;
    Alcotest.test_case "transmitter" `Quick test_transmitter_behaviour;
    Alcotest.test_case "fig2 behaviour" `Quick test_fig2_equivalent_by_simulation;
    Alcotest.test_case "retime+opt implementations pinned" `Quick test_retime_opt_pinned;
  ]

let () = Alcotest.run "circuits" [ ("circuits", suite) ]
