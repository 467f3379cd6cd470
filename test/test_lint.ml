(* Lint tests: every rule with a seeded-defect (positive) and a clean
   (negative) case, the lenient parser recovery paths, the ternary
   stuck-latch facts, the renderers/exit codes and the preflight gating
   of the verification pipeline. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rules diags = List.sort_uniq compare (List.map (fun d -> d.Netlist.Diag.rule) diags)
let has_rule rule diags = List.exists (fun d -> d.Netlist.Diag.rule = rule) diags

let net_names diags rule =
  List.concat_map
    (fun d ->
      if d.Netlist.Diag.rule = rule then
        List.filter_map (fun (_, name) -> name) d.Netlist.Diag.nets
      else [])
    diags

(* a clean reference circuit: 4-bit counter *)
let clean_counter () = Circuits.Suite.(match find "ctr8" with Some e -> e.build () | None -> assert false)

let check_clean name c =
  let diags = Netlist.Check.run c in
  Alcotest.(check (list string)) (name ^ " clean") [] (rules diags)

(* --- netlist rules: positive + negative ----------------------------------- *)

let test_multiply_driven () =
  let c =
    Netlist.Blif.parse_string ~lenient:true
      ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n"
  in
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "fires" true (has_rule "multiply-driven" diags);
  Alcotest.(check (list string)) "names f" [ "f"; "f" ] (net_names diags "multiply-driven");
  (* strict mode rejects the same text *)
  (match
     Netlist.Blif.parse_string
       ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n"
   with
  | exception Netlist.Blif.Parse_error msg ->
    Alcotest.(check bool) "strict names signal" true
      (String.length msg > 0
      && contains msg "multiple drivers" && contains msg "f")
  | _ -> Alcotest.fail "strict parse should reject duplicate drivers");
  check_clean "counter" (clean_counter ())

and test_undriven () =
  let c =
    Netlist.Blif.parse_string ~lenient:true
      ".model m\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n"
  in
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "fires" true (has_rule "undriven-net" diags);
  Alcotest.(check (list string)) "names ghost" [ "ghost" ] (net_names diags "undriven-net");
  check_clean "counter" (clean_counter ())

and test_unclosed_latch () =
  let c = Netlist.create "m" in
  let q = Netlist.add_latch ~name:"q" c ~init:false in
  Netlist.add_output c "o" q;
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "fires" true (has_rule "unclosed-latch" diags);
  Alcotest.(check (list string)) "names q" [ "q" ] (net_names diags "unclosed-latch");
  (* the same defect through the lenient BLIF path (undefined data) *)
  let c2 =
    Netlist.Blif.parse_string ~lenient:true
      ".model m\n.inputs a\n.outputs q\n.latch nowhere q 0\n.end\n"
  in
  Alcotest.(check bool) "blif fires" true
    (has_rule "unclosed-latch" (Netlist.Check.run c2));
  check_clean "counter" (clean_counter ())

and test_bad_arity () =
  let c = Netlist.create "m" in
  let a = Netlist.add_input ~name:"a" c in
  let b = Netlist.add_input ~name:"b" c in
  let g = Netlist.add_gate ~name:"g" c Netlist.Buf [ a ] in
  Netlist.unsafe_set_node c g (Netlist.Gate (Netlist.Not, [| a; b |]));
  Netlist.add_output c "o" g;
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "fires" true (has_rule "bad-arity" diags);
  Alcotest.(check (list string)) "names g" [ "g" ] (net_names diags "bad-arity");
  check_clean "counter" (clean_counter ())

and test_comb_cycle () =
  let c =
    Netlist.Blif.parse_string ~lenient:true
      ".model m\n.inputs a\n.outputs x\n.names y a x\n11 1\n.names x a y\n11 1\n.end\n"
  in
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "fires" true (has_rule "comb-cycle" diags);
  let witness =
    List.find (fun d -> d.Netlist.Diag.rule = "comb-cycle") diags
  in
  (* the message carries an explicit cycle path "... -> ..." *)
  Alcotest.(check bool) "witness path" true (contains witness.Netlist.Diag.message " -> ");
  (match Netlist.Blif.parse_string ".model m\n.inputs a\n.outputs x\n.names y a x\n11 1\n.names x a y\n11 1\n.end\n" with
  | exception Netlist.Blif.Parse_error _ -> ()
  | _ -> Alcotest.fail "strict parse should reject the cycle");
  check_clean "counter" (clean_counter ())

and test_output_collision () =
  let c = Netlist.create "m" in
  let a = Netlist.add_input ~name:"a" c in
  let b = Netlist.add_input ~name:"b" c in
  Netlist.add_output c "o" a;
  Netlist.add_output c "o" b;
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "error on distinct nets" true
    (List.exists
       (fun d -> d.Netlist.Diag.rule = "output-collision" && d.Netlist.Diag.severity = Netlist.Diag.Error)
       diags);
  let c2 = Netlist.create "m" in
  let a2 = Netlist.add_input ~name:"a" c2 in
  Netlist.add_output c2 "o" a2;
  Netlist.add_output c2 "o" a2;
  let diags2 = Netlist.Check.run c2 in
  Alcotest.(check bool) "warning on repeated listing" true
    (List.exists
       (fun d -> d.Netlist.Diag.rule = "output-collision" && d.Netlist.Diag.severity = Netlist.Diag.Warning)
       diags2);
  check_clean "counter" (clean_counter ())

and test_dead_and_unused () =
  let c = Netlist.create "m" in
  let a = Netlist.add_input ~name:"a" c in
  let b = Netlist.add_input ~name:"b" c in
  let live = Netlist.add_gate ~name:"live" c Netlist.Buf [ a ] in
  let _dead = Netlist.add_gate ~name:"dead" c Netlist.And [ a; b ] in
  Netlist.add_output c "o" live;
  let diags = Netlist.Check.run c in
  Alcotest.(check (list string)) "dead gate" [ "dead" ] (net_names diags "dead-net");
  Alcotest.(check (list string)) "unused input" [ "b" ] (net_names diags "unused-input");
  check_clean "counter" (clean_counter ())

and test_const_gate () =
  let c = Netlist.create "m" in
  let a = Netlist.add_input ~name:"a" c in
  let zero = Netlist.const0 c in
  let g = Netlist.add_gate ~name:"g" c Netlist.And [ a; zero ] in
  Netlist.add_output c "o" g;
  let diags = Netlist.Check.run c in
  Alcotest.(check (list string)) "foldable" [ "g" ] (net_names diags "const-gate");
  check_clean "counter" (clean_counter ())

and test_stuck_latch_rule () =
  (* q holds its own value from init 0: stuck at 0.  t toggles. *)
  let c = Netlist.create "m" in
  let q = Netlist.add_latch ~name:"q" c ~init:false in
  Netlist.set_latch_data c q ~data:q;
  let t = Netlist.add_latch ~name:"t" c ~init:false in
  Netlist.set_latch_data c t ~data:(Netlist.bnot c t);
  Netlist.add_output c "o" (Netlist.bxor c q t);
  let diags = Netlist.Check.run c in
  Alcotest.(check (list string)) "stuck q only" [ "q" ] (net_names diags "stuck-latch")

(* --- ternary simulation ----------------------------------------------------- *)

let test_ternary_facts () =
  let c = Netlist.create "m" in
  let en = Netlist.add_input ~name:"en" c in
  (* r: reset-style register fed by (en and r): stays 0 from init 0 *)
  let r = Netlist.add_latch ~name:"r" c ~init:false in
  Netlist.set_latch_data c r ~data:(Netlist.band c en r);
  (* f: free register fed by the input: X after one frame *)
  let f = Netlist.add_latch ~name:"f" c ~init:true in
  Netlist.set_latch_data c f ~data:en;
  Netlist.add_output c "o" (Netlist.bxor c r f);
  let facts = Netlist.Ternary.stuck_latches c in
  Alcotest.(check (list (pair int bool))) "r stuck at 0" [ (r, false) ] facts;
  (* inductive pruning: a pair of registers swapping 0/1 values is NOT
     stuck even though each is definite on every visited frame *)
  let c2 = Netlist.create "m2" in
  let x = Netlist.add_latch ~name:"x" c2 ~init:false in
  let y = Netlist.add_latch ~name:"y" c2 ~init:true in
  Netlist.set_latch_data c2 x ~data:y;
  Netlist.set_latch_data c2 y ~data:x;
  Netlist.add_output c2 "o" (Netlist.bxor c2 x y);
  Alcotest.(check (list (pair int bool))) "swap not stuck" [] (Netlist.Ternary.stuck_latches c2)

let test_aig_ternary_signatures () =
  let aig = Aig.create () in
  let pi = Aig.add_pi aig in
  let stuck = Aig.add_latch aig ~init:false in
  Aig.set_latch_next aig stuck ~next:stuck;
  let toggle = Aig.add_latch aig ~init:false in
  Aig.set_latch_next aig toggle ~next:(Aig.lit_not toggle);
  let free = Aig.add_latch aig ~init:false in
  Aig.set_latch_next aig free ~next:pi;
  Aig.add_po aig "o" stuck;
  let sigs = Lint.Aig_ternary.signatures ~max_steps:8 aig in
  let sig_of lit = sigs.(Aig.node_of_lit lit) in
  (* the stuck latch is definite 0 on both visited frames (0 and 0 -> the
     walk stops when the all-same state repeats) *)
  let m_stuck, v_stuck = sig_of stuck in
  Alcotest.(check bool) "stuck definite" true (m_stuck land 1 = 1);
  Alcotest.(check int) "stuck value 0" 0 (v_stuck land m_stuck);
  (* the toggling latch alternates 0,1,... *)
  let m_tog, v_tog = sig_of toggle in
  Alcotest.(check bool) "toggle frame0+1 definite" true (m_tog land 3 = 3);
  Alcotest.(check int) "toggle values 0,1" 2 (v_tog land 3);
  (* the input-fed latch is definite only on the initial frame *)
  let m_free, _ = sig_of free in
  Alcotest.(check int) "free mask init only" 1 m_free;
  (* stuck-latch facts agree *)
  Alcotest.(check (list (pair int bool))) "facts" [ (0, false) ]
    (Lint.Aig_ternary.stuck_latches aig)

(* --- AIG rules --------------------------------------------------------------- *)

let test_aig_rules () =
  (* unclosed latch *)
  let a1 = Aig.create () in
  let l = Aig.add_latch a1 ~init:false in
  Aig.add_po a1 "o" l;
  Alcotest.(check bool) "unclosed fires" true (has_rule "unclosed-latch" (Lint.check_aig a1));
  (* dangling literal through an out-of-range next-state *)
  let a2 = Aig.create () in
  let l2 = Aig.add_latch a2 ~init:false in
  Aig.set_latch_next a2 l2 ~next:9999;
  Aig.add_po a2 "o" l2;
  Alcotest.(check bool) "dangling fires" true (has_rule "dangling-literal" (Lint.check_aig a2));
  (* constant output and a dead AND node *)
  let a3 = Aig.create () in
  let pi = Aig.add_pi a3 in
  let pi2 = Aig.add_pi a3 in
  let _dead = Aig.mk_and a3 pi pi2 in
  Aig.add_po a3 "o" Aig.lit_true;
  let diags = Lint.check_aig a3 in
  Alcotest.(check bool) "const-output fires" true (has_rule "const-output" diags);
  Alcotest.(check bool) "dead-node fires" true (has_rule "dead-node" diags);
  (* stuck latch *)
  let a4 = Aig.create () in
  let pi4 = Aig.add_pi a4 in
  let l4 = Aig.add_latch a4 ~init:false in
  Aig.set_latch_next a4 l4 ~next:(Aig.mk_and a4 l4 pi4);
  Aig.add_po a4 "o" l4;
  Alcotest.(check bool) "stuck fires" true (has_rule "stuck-latch" (Lint.check_aig a4));
  (* a clean AIG from a clean circuit *)
  let aig, _ = Aig.of_netlist (clean_counter ()) in
  Alcotest.(check (list string)) "clean" [] (rules (Lint.check_aig aig))

(* --- validate: all errors, not the first -------------------------------------- *)

let test_validate_reports_all () =
  let c =
    Netlist.Blif.parse_string ~lenient:true
      ".model m\n.inputs a\n.outputs f\n.latch nowhere q 0\n.names a f\n1 1\n.names q f\n1 1\n.end\n"
  in
  match Netlist.validate c with
  | Ok () -> Alcotest.fail "should be invalid"
  | Error msg ->
    Alcotest.(check bool) "mentions multiply-driven" true (contains msg "multiply-driven");
    Alcotest.(check bool) "mentions unclosed-latch" true (contains msg "unclosed-latch")

(* --- renderers and exit codes -------------------------------------------------- *)

let test_render_and_json () =
  let d1 = Netlist.Diag.make ~nets:[ (3, Some "f\"oo") ] "r1" Netlist.Diag.Error "broken \"here\"" in
  let d2 = Netlist.Diag.make "r2" Netlist.Diag.Warning "meh" in
  let human = Lint.render ~subject:"t" [ d1; d2 ] in
  Alcotest.(check bool) "summary" true (contains human "1 error(s), 1 warning(s)");
  Alcotest.(check bool) "lists rule" true (contains human "error[r1]");
  let json = Lint.to_json ~subject:"t" [ d1; d2 ] in
  Alcotest.(check bool) "escapes quotes" true (contains json {|broken \"here\"|});
  Alcotest.(check bool) "net name escaped" true (contains json {|"name":"f\"oo"|});
  Alcotest.(check bool) "severity written" true (contains json {|"severity":"warning"|});
  Alcotest.(check string) "clean render" "t: clean\n" (Lint.render ~subject:"t" []);
  (* exit-code policy *)
  Alcotest.(check int) "non-strict always 0" 0 (Lint.exit_code ~strict:false [ d1 ]);
  Alcotest.(check int) "strict errors 2" 2 (Lint.exit_code ~strict:true [ d1; d2 ]);
  Alcotest.(check int) "strict warnings 1" 1 (Lint.exit_code ~strict:true [ d2 ]);
  Alcotest.(check int) "strict clean 0" 0 (Lint.exit_code ~strict:true []);
  let info = Netlist.Diag.make "r3" Netlist.Diag.Info "fyi" in
  Alcotest.(check int) "strict info 0" 0 (Lint.exit_code ~strict:true [ info ])

(* --- preflight gating of the verifier ------------------------------------------- *)

let test_preflight_rejects () =
  let good, _ = Aig.of_netlist (clean_counter ()) in
  let bad = Aig.create () in
  let _pi = Aig.add_pi bad in
  let l = Aig.add_latch bad ~init:false in
  ignore l;
  (* mirror the good interface: same PI count, an output of the same name *)
  Aig.add_po bad "carry" Aig.lit_false;
  match Scorr.check good bad with
  | exception Lint.Rejected report ->
    Alcotest.(check bool) "report names the rule" true (contains report "unclosed-latch")
  | _ -> Alcotest.fail "preflight should reject the unclosed latch"

let test_preflight_can_be_disabled () =
  (* with preflight off nothing raises; the verifier still answers on two
     clean circuits *)
  let aig, _ = Aig.of_netlist (clean_counter ()) in
  let options = { Scorr.default_options with Scorr.Verify.preflight = false } in
  match Scorr.check ~options aig aig with
  | Scorr.Equivalent _ -> ()
  | _ -> Alcotest.fail "self-equivalence expected"

(* --- ternary seeding of the partition -------------------------------------------- *)

let test_ternseed_refine () =
  (* two circuits whose registers the ternary walk distinguishes: a stuck
     register vs a toggling one, same interface *)
  let mk toggling =
    let aig = Aig.create () in
    let _pi = Aig.add_pi aig in
    let l = Aig.add_latch aig ~init:false in
    Aig.set_latch_next aig l ~next:(if toggling then Aig.lit_not l else l);
    Aig.add_po aig "o" Aig.lit_false;
    aig
  in
  let product = Scorr.Product.make (mk false) (mk true) in
  let aig = product.Scorr.Product.aig in
  let pol = Scorr.Product.reference_values ~seed:1 product in
  let partition =
    Scorr.Partition.create ~n_nodes:(Aig.num_nodes aig)
      ~candidates:(Scorr.Product.candidate_nodes product) ~pol
  in
  let splits = Scorr.Ternseed.refine product partition in
  Alcotest.(check bool) "split happened" true (splits > 0);
  (* the stuck (spec) and toggling (impl) latch must now be apart *)
  let spec_l = Aig.latch_node aig 0 and impl_l = Aig.latch_node aig 1 in
  Alcotest.(check bool) "latches separated" false
    (Scorr.Partition.class_of partition spec_l = Scorr.Partition.class_of partition impl_l);
  Alcotest.(check (list (pair int bool))) "stuck constant known" [ (0, false) ]
    (Scorr.Ternseed.stuck_constants product)

(* --- lenient .bench recovery ------------------------------------------------------ *)

let test_bench_lenient () =
  let text = "INPUT(a)\nOUTPUT(f)\nq = DFF(nowhere)\nf = AND(a, ghost)\nf = NOT(a)\n" in
  (match Netlist.Bench.parse_string text with
  | exception Netlist.Bench.Parse_error _ -> ()
  | _ -> Alcotest.fail "strict .bench should reject");
  let c = Netlist.Bench.parse_string ~lenient:true text in
  let diags = Netlist.Check.run c in
  Alcotest.(check bool) "multiply-driven" true (has_rule "multiply-driven" diags);
  Alcotest.(check bool) "undriven" true (has_rule "undriven-net" diags);
  Alcotest.(check bool) "unclosed" true (has_rule "unclosed-latch" diags)

(* --- the front door ------------------------------------------------------------------ *)

let with_file suffix text f =
  let path = Filename.temp_file "intake" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* One suite circuit in every format [Intake] reads, plus a clocked design
   for Verilog so the lowering runs too. *)
let intake_formats =
  lazy
    (let c = Circuits.Suite.(match find "mod10" with Some e -> e.build () | None -> assert false) in
     let aig = fst (Aig.of_netlist c) in
     let design = Circuits.Clocked.reset_counter ~kind:Netlist.Clocking.Async ~bits:3 () in
     [
       (".blif", Netlist.Blif.to_string c);
       (".bench", Netlist.Bench.to_string c);
       (".v", Netlist.Verilog.design_to_string design);
       (".aag", Aig.Aiger.to_string aig);
       (".aig", Aig.Aiger.to_binary_string aig);
     ])

let test_intake_formats () =
  List.iter
    (fun (suffix, text) ->
      with_file suffix text (fun path ->
          match Lint.Intake.load (Lint.Intake.Path path) with
          | Ok aig -> Alcotest.(check bool) (suffix ^ " has latches") true (Aig.num_latches aig > 0)
          | Error e -> Alcotest.fail (suffix ^ ": " ^ Lint.Intake.explain e)))
    (Lazy.force intake_formats);
  (* inline AIGER, ASCII or binary by its magic *)
  List.iter
    (fun suffix ->
      let text = List.assoc suffix (Lazy.force intake_formats) in
      match Lint.Intake.load (Lint.Intake.Text text) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("inline " ^ suffix ^ ": " ^ Lint.Intake.explain e))
    [ ".aag"; ".aig" ]

let test_intake_errors () =
  let expect name pred source =
    match Lint.Intake.load source with
    | Error e when pred e -> ()
    | Error e -> Alcotest.fail (name ^ ": wrong error: " ^ Lint.Intake.explain e)
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
  in
  let io = function Lint.Intake.Io _ -> true | _ -> false in
  let parse = function Lint.Intake.Parse _ -> true | _ -> false in
  expect "missing file" io (Lint.Intake.Path "no-such-file.blif");
  expect "directory" io (Lint.Intake.Path (Filename.get_temp_dir_name ()));
  expect "inline junk" parse (Lint.Intake.Text "not aiger");
  (* binary AIGER is read as binary, not as BLIF *)
  with_file ".aig" "aig 1 1 0 1 0\n6\n" (fun path ->
      expect ".aig literal" (function
        | Lint.Intake.Parse (_, msg) -> contains msg "2M+1"
        | _ -> false)
        (Lint.Intake.Path path));
  with_file ".blif" ".model m\n.inputs a\n.outputs q\n.latch nowhere q 0\n.end\n" (fun path ->
      expect "defective blif"
        (function
          | Lint.Intake.Rejected (subject, diags) ->
            subject = path && has_rule "unclosed-latch" diags
          | _ -> false)
        (Lint.Intake.Path path))

(* Byte mutations (replace, delete, insert) of every format [Intake]
   reads, and of a witness, a checkpoint and a certificate (with its DRAT
   trace): each must load to [Ok] or a typed error, never raise another
   exception, and allocate less than a fixed bound whatever the header
   claims. *)
type mutation = Replace of int * char | Delete of int | Insert of int * char

let mutate text ms =
  List.fold_left
    (fun s m ->
      let n = String.length s in
      match m with
      | Replace (i, c) when n > 0 -> String.mapi (fun j x -> if j = i mod n then c else x) s
      | Delete i when n > 0 ->
        let i = i mod n in
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | Insert (i, c) ->
        let i = i mod (n + 1) in
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | Replace _ | Delete _ -> s)
    text ms

let intake_alloc_bound = 64e6

(* The text readers outside [Intake]: name, a valid sample, the reader. *)
let text_readers =
  lazy
    (let spec = fst (Aig.of_netlist (Circuits.Counter.modulo 5)) in
     let impl = Circuits.Suite.implementation ~recipe:Circuits.Suite.Retime_only ~seed:3 spec in
     let options = Scorr.default_options in
     let run = Scorr.Verify.run_with_relation ~options spec impl in
     let checkpoint =
       match Scorr.Verify.checkpoint_of_run ~options ~spec ~impl run with
       | Ok cp ->
         let bits n = Array.init n (fun i -> i mod 3 = 0) in
         let _, product, _ = run in
         let aig = product.Scorr.Product.aig in
         Scorr.Checkpoint.to_string
           { cp with
             Scorr.Checkpoint.patterns = [ (bits (Aig.num_pis aig), bits (Aig.num_latches aig)) ]
           }
       | Error msg -> failwith msg
     in
     let certificate =
       match Cert.Certificate.of_run ~options ~spec ~impl run with
       | Ok cert -> (
         match Cert.Certificate.prove ~spec ~impl cert with
         | Ok cert -> Cert.Certificate.to_string cert
         | Error e -> failwith (Cert.Certificate.explain_check_error e))
       | Error e -> failwith (Cert.Certificate.explain_emit_error e)
     in
     [
       ( "witness",
         Cert.Witness.to_string
           (Cert.Witness.make (Array.init 4 (fun t -> Array.init 3 (fun i -> (t + i) mod 2 = 0)))),
         fun s -> ignore (Cert.Witness.parse_string s) );
       ("checkpoint", checkpoint, fun s -> ignore (Scorr.Checkpoint.parse_string s));
       ("certificate", certificate, fun s -> ignore (Cert.Certificate.parse_string s));
       ( "serve-json",
         Serve.Protocol.request_to_line
           (Serve.Protocol.Submit
              {
                spec = Serve.Protocol.Path "spec.blif";
                impl = Serve.Protocol.Aag "aag 1 1 0 1 0\n2\n2\n";
                opts = { Serve.Protocol.default_opts with speculate = true; deadline = 2.5 };
                watch = true;
              }),
         fun s -> ignore (Serve.Json.of_string s) );
     ])

let test_text_readers_accept_samples () =
  List.iter (fun (_, text, read) -> read text) (Lazy.force text_readers)

let prop_intake_total =
  let gen =
    let open QCheck.Gen in
    let byte = map Char.chr (int_bound 255) and pos = int_bound 100_000 in
    let mutation =
      oneof
        [
          map2 (fun i c -> Replace (i, c)) pos byte;
          map (fun i -> Delete i) pos;
          map2 (fun i c -> Insert (i, c)) pos byte;
        ]
    in
    pair (int_bound 8) (list_size (int_range 1 3) mutation)
  in
  let suffix k =
    if k < 5 then fst (List.nth (Lazy.force intake_formats) k)
    else
      let name, _, _ = List.nth (Lazy.force text_readers) (k - 5) in
      name
  in
  let print (k, ms) =
    Printf.sprintf "%s: %s" (suffix k)
      (String.concat "; "
         (List.map
            (function
              | Replace (i, c) -> Printf.sprintf "replace %d %C" i c
              | Delete i -> Printf.sprintf "delete %d" i
              | Insert (i, c) -> Printf.sprintf "insert %d %C" i c)
            ms))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"intake is total on mutated bytes" ~count:3000
       (QCheck.make ~print gen)
       (fun (k, ms) ->
         let before = Gc.allocated_bytes () in
         (if k < 5 then begin
            let suffix, text = List.nth (Lazy.force intake_formats) k in
            let text = mutate text ms in
            with_file suffix text (fun path -> ignore (Lint.Intake.load (Lint.Intake.Path path)));
            if suffix = ".aag" || suffix = ".aig" then
              ignore (Lint.Intake.load (Lint.Intake.Text text))
          end
          else
            let _, text, read = List.nth (Lazy.force text_readers) (k - 5) in
            match read (mutate text ms) with
            | () -> ()
            | exception
                ( Cert.Witness.Parse_error _ | Scorr.Checkpoint.Parse_error _
                | Cert.Certificate.Parse_error _ | Serve.Json.Parse_error _ ) ->
              ());
         Gc.allocated_bytes () -. before < intake_alloc_bound))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "multiply-driven" `Quick test_multiply_driven;
          Alcotest.test_case "undriven-net" `Quick test_undriven;
          Alcotest.test_case "unclosed-latch" `Quick test_unclosed_latch;
          Alcotest.test_case "bad-arity" `Quick test_bad_arity;
          Alcotest.test_case "comb-cycle witness" `Quick test_comb_cycle;
          Alcotest.test_case "output-collision" `Quick test_output_collision;
          Alcotest.test_case "dead-net and unused-input" `Quick test_dead_and_unused;
          Alcotest.test_case "const-gate" `Quick test_const_gate;
          Alcotest.test_case "stuck-latch" `Quick test_stuck_latch_rule;
          Alcotest.test_case "aig rules" `Quick test_aig_rules;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "netlist facts are inductive" `Quick test_ternary_facts;
          Alcotest.test_case "aig signatures" `Quick test_aig_ternary_signatures;
          Alcotest.test_case "partition seeding" `Quick test_ternseed_refine;
        ] );
      ( "surface",
        [
          Alcotest.test_case "validate reports all errors" `Quick test_validate_reports_all;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "preflight rejects" `Quick test_preflight_rejects;
          Alcotest.test_case "preflight off" `Quick test_preflight_can_be_disabled;
          Alcotest.test_case "lenient .bench" `Quick test_bench_lenient;
        ] );
      ( "intake",
        [
          Alcotest.test_case "every format loads" `Quick test_intake_formats;
          Alcotest.test_case "typed errors" `Quick test_intake_errors;
          Alcotest.test_case "text readers accept their samples" `Quick
            test_text_readers_accept_samples;
          prop_intake_total;
        ] );
    ]
