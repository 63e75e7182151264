(* Stateful property suite: random BFD control-packet sequences driven
   through the SAGE-generated session state machine (interpreted IR via
   Generated_stack.run_state_update) and, in lockstep, through the
   hand-written RFC 5880 reference session (Sage_net.Bfd).  After every
   packet the two implementations must agree on the shared state
   variables.  Built on Qcheck_lite's state-machine combinator, so a
   failing sequence shrinks to a minimal command list.

   The generator stays inside the slice both implementations model the
   same way: version 1, no authentication, Multipoint clear, nonzero
   Detect Mult and My Discriminator, Your Discriminator equal to the
   local discriminator (so session lookup always succeeds), and a
   starting state of Down. *)

module Ql = Qcheck_lite
module Bfd = Sage_net.Bfd
module Gs = Sage_sim.Generated_stack
module Rt = Sage_interp.Runtime
module P = Sage.Pipeline
module C = Corpus_runs

let local_discr = 7

let reception_fn = "bfd_reception_of_bfd_control_packets_sender"

let stack =
  lazy (Gs.of_run (C.run_of (P.find_corpus "bfd")))

(* the variables both sides track under the same names *)
let compared_vars =
  [ "bfd.SessionState"; "bfd.RemoteDiscr"; "bfd.RemoteSessionState";
    "bfd.RemoteDemandMode"; "bfd.RemoteMinRxInterval" ]

(* ---- command generation against a model of the session state ---- *)

(* pure mirror of the generated transition table, used to bias packet
   generation toward state changes (and checked against both real
   implementations below) *)
let step_state st sta =
  match (st, sta) with
  | s, 0 when s <> 1 -> 1
  | 1, 1 -> 2
  | 1, 2 -> 3
  | 2, 2 -> 3
  | 2, 3 -> 3
  | 3, 1 -> 1
  | s, _ -> s

let machine =
  {
    Ql.init_model = 1 (* Down *);
    gen_cmd =
      (fun st rng ->
        let sta =
          (* bias toward the packets that move this state *)
          match st with
          | 1 -> Ql.pick rng [ 1; 1; 2; 3; 0 ]
          | 2 -> Ql.pick rng [ 2; 3; 1; 0 ]
          | 3 -> Ql.pick rng [ 1; 3; 0; 2 ]
          | _ -> Ql.int_below rng 4
        in
        {
          Bfd.default_packet with
          Bfd.state =
            (match Bfd.state_of_code sta with
             | Ok s -> s
             | Error _ -> Bfd.Down);
          poll = Ql.gen_bool rng;
          final = Ql.gen_bool rng;
          demand = Ql.gen_bool rng;
          diag = Ql.int_below rng 8;
          detect_mult = 1 + Ql.int_below rng 4;
          my_discriminator = Int32.of_int (1 + Ql.int_below rng 3);
          your_discriminator = Int32.of_int local_discr;
          desired_min_tx = Int32.of_int (Ql.int_below rng 3 * 1000);
          required_min_rx = Int32.of_int (Ql.int_below rng 3 * 1000);
          required_min_echo_rx = Int32.of_int (Ql.int_below rng 2);
        });
    step_model = (fun st p -> step_state st (Bfd.state_code p.Bfd.state));
    print_cmd =
      (fun p ->
        Printf.sprintf "%s(p=%b f=%b d=%b rx=%ld)"
          (Bfd.state_name p.Bfd.state) p.Bfd.poll p.Bfd.final p.Bfd.demand
          p.Bfd.required_min_rx);
  }

(* ---- replaying a command list through both implementations ---- *)

let initial_state =
  [ ("bfd.SessionState", 1L (* Down *));
    ("bfd.LocalDiscr", Int64.of_int local_discr);
    ("bfd.AuthType", 0L);
    ("bfd.PeriodicTx", 1L);
  ]

let params = [ ("remote_system", Rt.VInt 0xC0A8020AL) ]

let run_generated cmds =
  let t = Lazy.force stack in
  let rec go state acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match
        Gs.run_state_update ~state ~params t ~fn:reception_fn
          ~packet:(Bfd.encode p)
      with
      | Error e -> Error e
      | Ok (bindings, _discarded) ->
        let snapshot =
          List.map
            (fun v -> (v, Option.value ~default:0L (List.assoc_opt v bindings)))
            compared_vars
        in
        go bindings (snapshot :: acc) rest)
  in
  go initial_state [] cmds

let run_reference cmds =
  let session = Bfd.new_session ~local_discr:(Int32.of_int local_discr) in
  List.map
    (fun p ->
      (match Bfd.receive_control_packet session p with
       | `Ok | `Discard _ -> ());
      List.map
        (fun v ->
          match Bfd.get_var session v with
          | Ok x -> (v, Int64.of_int32 x)
          | Error e -> Alcotest.failf "reference lost variable %s: %s" v e)
        compared_vars)
    cmds

let agree cmds =
  match run_generated cmds with
  | Error e -> Alcotest.failf "generated stack failed: %s" e
  | Ok gen_snapshots ->
    let ref_snapshots = run_reference cmds in
    List.for_all2
      (fun g r ->
        List.for_all2
          (fun (vg, xg) (vr, xr) -> vg = vr && Int64.equal xg xr)
          g r)
      gen_snapshots ref_snapshots

(* model sanity: the pure mirror tracks the generated implementation *)
let model_tracks cmds =
  match run_generated cmds with
  | Error e -> Alcotest.failf "generated stack failed: %s" e
  | Ok snapshots ->
    let rec go st snaps cmds =
      match (snaps, cmds) with
      | [], [] -> true
      | snap :: snaps, cmd :: cmds ->
        let st = step_state st (Bfd.state_code cmd.Bfd.state) in
        Int64.equal
          (Option.value ~default:0L (List.assoc_opt "bfd.SessionState" snap))
          (Int64.of_int st)
        && go st snaps cmds
      | _ -> false
    in
    go 1 snapshots cmds

(* deterministic FSM walks covering the three-state cycle explicitly *)
let packet_with sta =
  {
    Bfd.default_packet with
    Bfd.state = (match Bfd.state_of_code sta with Ok s -> s | Error _ -> Bfd.Down);
    my_discriminator = 9l;
    your_discriminator = Int32.of_int local_discr;
    detect_mult = 3;
  }

let test_up_path () =
  (* receive Down while Down -> Init; receive Init while Init -> Up,
     per the §6.8.6 FSM *)
  match run_generated [ packet_with 1; packet_with 2 ] with
  | Error e -> Alcotest.failf "generated stack failed: %s" e
  | Ok snapshots ->
    let states =
      List.map
        (fun snap -> Option.value ~default:0L (List.assoc_opt "bfd.SessionState" snap))
        snapshots
    in
    Alcotest.(check (list int64)) "down -> init -> up" [ 2L; 3L ] states

let test_remote_vars_recorded () =
  match run_generated [ packet_with 1 ] with
  | Error e -> Alcotest.failf "generated stack failed: %s" e
  | Ok [ snap ] ->
    Alcotest.(check (option int64)) "RemoteDiscr = my_discriminator" (Some 9L)
      (List.assoc_opt "bfd.RemoteDiscr" snap);
    Alcotest.(check (option int64)) "RemoteSessionState = sta" (Some 1L)
      (List.assoc_opt "bfd.RemoteSessionState" snap)
  | Ok _ -> Alcotest.fail "expected exactly one snapshot"

let suite =
  [
    Ql.test_machine ~count:150 "bfd session: generated = reference" machine
      agree;
    Ql.test_machine ~count:100 "bfd session: model mirrors generated" machine
      model_tracks;
    Ql.test_machine ~count:100 ~max_len:20 "bfd session: long walks agree"
      machine agree;
    Alcotest.test_case "bfd session: down-init-up path" `Quick test_up_path;
    Alcotest.test_case "bfd session: remote variables recorded" `Quick
      test_remote_vars_recorded;
  ]
