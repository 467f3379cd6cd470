(* Replayable counterexample witnesses: the structured form of every
   "Not_equivalent" answer.  A witness is a frame-indexed sequence of
   primary-input vectors plus the frame at which the disproof lands; it
   unifies [Reach.Bmc.counterexample] and the raw trace of
   [Scorr.Verify.verdict], and is validated by simulating the *original*
   circuits — never by trusting the engine that produced it. *)

type t = {
  frame : int; (* frame at which the disproof lands *)
  inputs : bool array array; (* inputs.(t).(i): PI i at frame t *)
  output : string option; (* failing output name, when known *)
}

exception Parse_error of string

let make ?output inputs =
  if Array.length inputs = 0 then invalid_arg "Witness.make: empty trace";
  { frame = Array.length inputs - 1; inputs; output }

let of_trace ?output inputs = make ?output inputs

let of_bmc (cex : Reach.Bmc.counterexample) =
  {
    frame = cex.Reach.Bmc.depth;
    inputs = cex.Reach.Bmc.inputs;
    output = Some cex.Reach.Bmc.output;
  }

let n_frames w = Array.length w.inputs
let n_pis w = if Array.length w.inputs = 0 then 0 else Array.length w.inputs.(0)

(* --- validation ------------------------------------------------------------- *)

type replay_error =
  | No_frames
  | Frame_out_of_range of { failing_frame : int; frames : int }
  | Width_mismatch of { subject : string; expected : int; got : int; frame : int }
  | Unknown_output of string
  | No_failure (* the witness replays cleanly: nothing is disproved *)

let explain_error = function
  | No_frames -> "witness has no input frames"
  | Frame_out_of_range { failing_frame; frames } ->
    Printf.sprintf "failing frame %d is outside the witness's %d frame(s)" failing_frame
      frames
  | Width_mismatch { subject; expected; got; frame } ->
    Printf.sprintf
      "PI vector of frame %d has %d bit(s) but the %s has %d primary input(s)" frame got
      subject expected
  | Unknown_output name -> Printf.sprintf "circuit has no output named %s" name
  | No_failure -> "replay shows no output mismatch: the witness disproves nothing"

(* Structural admission: the witness must name a frame it contains and
   every PI vector must match the circuit's input width — mismatches are
   diagnosed, never truncated or padded. *)
let check_shape ~subject aig w =
  if Array.length w.inputs = 0 then Error No_frames
  else if w.frame < 0 || w.frame >= Array.length w.inputs then
    Error (Frame_out_of_range { failing_frame = w.frame; frames = Array.length w.inputs })
  else begin
    let expected = Aig.num_pis aig in
    let bad = ref None in
    Array.iteri
      (fun t fr ->
        if !bad = None && Array.length fr <> expected then
          bad := Some (Width_mismatch { subject; expected; got = Array.length fr; frame = t }))
      w.inputs;
    match !bad with Some e -> Error e | None -> Ok ()
  end

(* Named output values of [aig] at every frame of the witness (shape must
   already have been checked). *)
let simulate aig w =
  let state = ref (Aig.Sim.initial_latch_words aig) in
  Array.map
    (fun frame ->
      let pi_words = Array.map (fun b -> if b then -1L else 0L) frame in
      let values, next = Aig.Sim.step aig ~pi_words ~latch_words:!state in
      state := next;
      List.map
        (fun (name, l) -> (name, Int64.logand (Aig.Sim.lit_word values l) 1L = 1L))
        (Aig.pos aig))
    w.inputs

type mismatch = { at_frame : int; output : string; spec_value : bool; impl_value : bool }

(* Replay the witness on both circuits and locate the first frame at which
   an output pair (matched by name) disagrees. *)
let replay ~spec ~impl w =
  match check_shape ~subject:"specification" spec w with
  | Error e -> Error e
  | Ok () -> (
    match check_shape ~subject:"implementation" impl w with
    | Error e -> Error e
    | Ok () ->
      let o_spec = simulate spec w and o_impl = simulate impl w in
      let found = ref None in
      for t = 0 to w.frame do
        if !found = None then
          List.iter
            (fun (name, v1) ->
              if !found = None then
                match List.assoc_opt name o_impl.(t) with
                | Some v2 when v1 <> v2 ->
                  found := Some { at_frame = t; output = name; spec_value = v1; impl_value = v2 }
                | _ -> ())
            o_spec.(t)
      done;
      (match !found with Some m -> Ok m | None -> Error No_failure))

(* Single-circuit property form (the BMC convention: every PO must be 1):
   the witness claims its named output — or any output, when unnamed — is
   0 at the failing frame. *)
let po_failure aig w =
  match check_shape ~subject:"circuit" aig w with
  | Error e -> Error e
  | Ok () -> (
    let outs = simulate aig w in
    let at_frame = outs.(w.frame) in
    match w.output with
    | Some name -> (
      match List.assoc_opt name at_frame with
      | None -> Error (Unknown_output name)
      | Some true -> Error No_failure
      | Some false -> Ok name)
    | None -> (
      match List.find_opt (fun (_, v) -> not v) at_frame with
      | Some (name, _) -> Ok name
      | None -> Error No_failure))

let refutes aig w = match po_failure aig w with Ok _ -> true | Error _ -> false

(* --- shrinking --------------------------------------------------------------- *)

(* Greedy minimization preserving the disproof: truncate to the earliest
   mismatching frame, then flip input bits toward 0 one at a time, keeping
   each flip only if the replay still finds a mismatch.  The bits are
   flipped in copies of the frames: the argument is left as it was. *)
let shrink ~spec ~impl w =
  match replay ~spec ~impl w with
  | Error _ -> w
  | Ok m ->
    let truncate (m : mismatch) w =
      { frame = m.at_frame; inputs = Array.init (m.at_frame + 1) (fun t -> Array.copy w.inputs.(t));
        output = Some m.output }
    in
    let w = ref (truncate m w) in
    Array.iter
      (fun frame ->
        Array.iteri
          (fun i bit ->
            if bit then begin
              frame.(i) <- false;
              match replay ~spec ~impl !w with
              | Ok _ -> ()
              | Error _ -> frame.(i) <- true
            end)
          frame)
      !w.inputs;
    (* bit flips may have moved the first mismatch earlier *)
    (match replay ~spec ~impl !w with Ok m -> w := truncate m !w | Error _ -> ());
    !w

(* --- renderers ---------------------------------------------------------------- *)

let bits_of_row row = String.init (Array.length row) (fun i -> if row.(i) then '1' else '0')

(* One row per signal, one column per frame — the text waveform.  When a
   circuit is supplied (and the witness fits it), its output values are
   appended as extra rows. *)
let to_waveform ?spec ?impl w =
  let n = Array.length w.inputs in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "witness: %d frame(s), disproof at frame %d%s\n" n w.frame
       (match w.output with Some o -> Printf.sprintf " (output %s)" o | None -> ""));
  let row label values =
    Buffer.add_string buf (Printf.sprintf "  %-14s %s\n" label values)
  in
  for i = 0 to n_pis w - 1 do
    row (Printf.sprintf "pi%d" i)
      (String.init n (fun t -> if w.inputs.(t).(i) then '1' else '0'))
  done;
  let side label aig =
    match check_shape ~subject:label aig w with
    | Error _ -> ()
    | Ok () ->
      let outs = simulate aig w in
      List.iter
        (fun (name, _) ->
          row
            (Printf.sprintf "%s %s" label name)
            (String.init n (fun t -> if List.assoc name outs.(t) then '1' else '0')))
        outs.(0)
  in
  (match spec with Some a -> side "spec" a | None -> ());
  (match impl with Some a -> side "impl" a | None -> ());
  Buffer.contents buf

(* VCD identifier codes: printable ASCII 33..126, base-94. *)
let vcd_id i =
  let rec go acc i =
    let acc = String.make 1 (Char.chr (33 + (i mod 94))) ^ acc in
    if i < 94 then acc else go acc ((i / 94) - 1)
  in
  go "" i

let to_vcd ?spec ?impl w =
  let buf = Buffer.create 512 in
  let signals = ref [] in
  (* (id, name, value-at-frame) in declaration order *)
  let declare name value_at = signals := (name, value_at) :: !signals in
  for i = 0 to n_pis w - 1 do
    declare (Printf.sprintf "pi%d" i) (fun t -> w.inputs.(t).(i))
  done;
  let side label aig =
    match check_shape ~subject:label aig w with
    | Error _ -> ()
    | Ok () ->
      let outs = simulate aig w in
      List.iter
        (fun (name, _) ->
          declare (Printf.sprintf "%s_%s" label name) (fun t -> List.assoc name outs.(t)))
        outs.(0)
  in
  (match spec with Some a -> side "spec" a | None -> ());
  (match impl with Some a -> side "impl" a | None -> ());
  let signals = List.rev !signals in
  Buffer.add_string buf "$timescale 1 ns $end\n$scope module witness $end\n";
  List.iteri
    (fun i (name, _) ->
      Buffer.add_string buf (Printf.sprintf "$var wire 1 %s %s $end\n" (vcd_id i) name))
    signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  for t = 0 to Array.length w.inputs - 1 do
    Buffer.add_string buf (Printf.sprintf "#%d\n" t);
    List.iteri
      (fun i (_, value_at) ->
        Buffer.add_string buf
          (Printf.sprintf "%c%s\n" (if value_at t then '1' else '0') (vcd_id i)))
      signals
  done;
  Buffer.contents buf

(* --- serialization ------------------------------------------------------------- *)

(* Text format:

     seqver-witness 1
     pis 2
     frames 3
     failing-frame 2
     output carry          (optional)
     frame 0 01
     frame 1 11
     frame 2 10
     end                                                                 *)

let to_string w =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "seqver-witness 1\n";
  Buffer.add_string buf (Printf.sprintf "pis %d\n" (n_pis w));
  Buffer.add_string buf (Printf.sprintf "frames %d\n" (n_frames w));
  Buffer.add_string buf (Printf.sprintf "failing-frame %d\n" w.frame);
  (match w.output with
  | Some o -> Buffer.add_string buf (Printf.sprintf "output %s\n" o)
  | None -> ());
  Array.iteri
    (fun t row -> Buffer.add_string buf (Printf.sprintf "frame %d %s\n" t (bits_of_row row)))
    w.inputs;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some n -> n
  | None -> fail "%s: expected an integer, got %S" what s

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let expect_prefix what prefix = function
    | [] -> fail "unexpected end of witness (expected %s)" what
    | line :: rest ->
      let n = String.length prefix in
      if String.length line >= n && String.sub line 0 n = prefix then
        (String.sub line n (String.length line - n), rest)
      else fail "expected %s, got %S" what line
  in
  let version, lines = expect_prefix "header" "seqver-witness " lines in
  if parse_int "version" version <> 1 then fail "unsupported witness version %s" version;
  let pis, lines = expect_prefix "pis" "pis " lines in
  let pis = parse_int "pis" pis in
  let frames, lines = expect_prefix "frames" "frames " lines in
  let frames = parse_int "frames" frames in
  let failing, lines = expect_prefix "failing-frame" "failing-frame " lines in
  let failing = parse_int "failing-frame" failing in
  let output, lines =
    match lines with
    | line :: rest
      when String.length line >= 7 && String.sub line 0 7 = "output " ->
      (Some (String.sub line 7 (String.length line - 7)), rest)
    | _ -> (None, lines)
  in
  if pis < 0 then fail "negative PI count %d" pis;
  if frames <= 0 then fail "witness must contain at least one frame (got %d)" frames;
  if failing < 0 || failing >= frames then
    fail "failing-frame %d outside the declared %d frame(s)" failing frames;
  (* one line per frame: refuse a count the text cannot hold before
     allocating for it *)
  if frames > List.length lines then
    fail "%d frame(s) declared, only %d line(s) follow" frames (List.length lines);
  let inputs = Array.make frames [||] in
  let rec read_frames t lines =
    if t = frames then lines
    else begin
      let rest, lines = expect_prefix "frame" "frame " lines in
      match String.index_opt rest ' ' with
      | None ->
        (* a frame of width 0 has no bits after the index *)
        if parse_int "frame index" rest <> t then fail "frame lines out of order at %d" t;
        if pis <> 0 then fail "frame %d has 0 bit(s), declared pis is %d" t pis;
        inputs.(t) <- [||];
        read_frames (t + 1) lines
      | Some sp ->
        let idx = parse_int "frame index" (String.sub rest 0 sp) in
        if idx <> t then fail "frame lines out of order: expected %d, got %d" t idx;
        let bits = String.trim (String.sub rest (sp + 1) (String.length rest - sp - 1)) in
        if String.length bits <> pis then
          fail "frame %d has %d bit(s), declared pis is %d" t (String.length bits) pis;
        inputs.(t) <-
          Array.init pis (fun i ->
              match bits.[i] with
              | '0' -> false
              | '1' -> true
              | c -> fail "frame %d: invalid bit %C" t c);
        read_frames (t + 1) lines
    end
  in
  let lines = read_frames 0 lines in
  (match lines with
  | [ "end" ] -> ()
  | [] -> fail "missing end marker"
  | line :: _ -> fail "trailing content after frames: %S" line);
  { frame = failing; inputs; output }

let to_file path w =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string w))

let parse_file path =
  parse_string (In_channel.with_open_bin path In_channel.input_all)
