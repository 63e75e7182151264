(* Tests for the interpreter: packet views (bit packing) and execution of
   generated IR against the static framework. *)

module Hd = Sage_rfc.Header_diagram
module Pv = Sage_interp.Packet_view
module Rt = Sage_interp.Runtime
module Exec = Sage_interp.Exec
module Ir = Sage_codegen.Ir
module Addr = Sage_net.Addr
module Icmp = Sage_net.Icmp
module Q = Qcheck_lite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let echo_layout =
  Result.get_ok
    (Hd.parse ~name:"echo"
       "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
       \   |     Type      |     Code      |          Checksum             |\n\
       \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
       \   |           Identifier          |        Sequence Number        |\n\
       \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
       \   |     Data ...\n\
       \   +-+-+-+-+-")

let bfd_layout =
  Result.get_ok
    (Hd.parse ~name:"bfd"
       "   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
       \   |Vers |  Diag   |Sta|P|F|C|A|D|M|  Detect Mult  |    Length     |\n\
       \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+\n\
       \   |                       My Discriminator                        |\n\
       \   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+")

(* ---- packet views ---- *)

let test_view_get_set () =
  let v = Pv.create echo_layout in
  (match Pv.set v "identifier" 0x1234L with Ok () -> () | Error e -> Alcotest.fail e);
  (match Pv.get v "identifier" with
   | Ok x -> check Alcotest.int64 "get" 0x1234L x
   | Error e -> Alcotest.fail e);
  match Pv.get v "no_such_field" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field read"

let test_view_truncates_to_width () =
  let v = Pv.create echo_layout in
  ignore (Pv.set v "type" 0x1ffL);
  match Pv.get v "type" with
  | Ok x -> check Alcotest.int64 "8-bit field wraps" 0xffL x
  | Error e -> Alcotest.fail e

let test_view_serialize_matches_reference () =
  (* the view's byte layout must agree with the hand-written codec *)
  let v = Pv.create echo_layout in
  ignore (Pv.set v "type" 8L);
  ignore (Pv.set v "code" 0L);
  ignore (Pv.set v "identifier" 0x2327L);
  ignore (Pv.set v "sequence_number" 3L);
  Pv.set_data v (Bytes.of_string "abc");
  let wire = Pv.serialize v in
  (* compute and store the checksum like the generated code does *)
  let c = Sage_net.Checksum.checksum wire in
  ignore (Pv.set v "checksum" (Int64.of_int c));
  let wire = Pv.serialize v in
  match Icmp.decode wire with
  | Ok (Icmp.Echo e) ->
    check Alcotest.int "id" 0x2327 e.Icmp.identifier;
    check Alcotest.int "seq" 3 e.Icmp.sequence;
    check Alcotest.bytes "payload" (Bytes.of_string "abc") e.Icmp.payload;
    check Alcotest.bool "checksum ok" true (Icmp.checksum_ok wire)
  | Ok _ -> Alcotest.fail "wrong message type"
  | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e)

let test_view_deserialize_roundtrip () =
  let msg =
    Icmp.Echo
      { Icmp.echo_code = 0; identifier = 77; sequence = 9;
        payload = Bytes.of_string "xyzzy" }
  in
  let wire = Icmp.encode msg in
  match Pv.deserialize echo_layout wire with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check Alcotest.int64 "type" 8L (Result.get_ok (Pv.get v "type"));
    check Alcotest.int64 "id" 77L (Result.get_ok (Pv.get v "identifier"));
    check Alcotest.bytes "data" (Bytes.of_string "xyzzy") (Pv.get_data v);
    check Alcotest.bytes "reserialize" wire (Pv.serialize v)

let test_view_bitfields () =
  (* sub-byte fields pack correctly against the reference BFD codec *)
  let v = Pv.create bfd_layout in
  ignore (Pv.set v "vers" 1L);
  ignore (Pv.set v "diag" 3L);
  ignore (Pv.set v "sta" 3L);
  ignore (Pv.set v "p" 1L);
  ignore (Pv.set v "d" 1L);
  ignore (Pv.set v "detect_mult" 3L);
  ignore (Pv.set v "length" 24L);
  ignore (Pv.set v "my_discriminator" 0xbeefL);
  let wire = Bytes.cat (Pv.serialize v) (Bytes.make 16 '\000') in
  match Sage_net.Bfd.decode wire with
  | Ok p ->
    check Alcotest.int "diag" 3 p.Sage_net.Bfd.diag;
    check Alcotest.string "state" "Up" (Sage_net.Bfd.state_name p.Sage_net.Bfd.state);
    check Alcotest.bool "poll" true p.Sage_net.Bfd.poll;
    check Alcotest.bool "demand" true p.Sage_net.Bfd.demand;
    check Alcotest.int32 "my discr" 0xbeefl p.Sage_net.Bfd.my_discriminator
  | Error e -> Alcotest.fail (Sage_net.Decode_error.to_string e)

let test_view_serialize_from () =
  let v = Pv.create echo_layout in
  ignore (Pv.set v "checksum" 0xffffL);
  ignore (Pv.set v "identifier" 0x0102L);
  Pv.set_data v (Bytes.of_string "Z");
  match Pv.serialize_from v "checksum" with
  | Ok b ->
    (* checksum(16) + id(16) + seq(16) + 1 data byte = 7 bytes *)
    check Alcotest.int "length" 7 (Bytes.length b);
    check Alcotest.int "starts at checksum" 0xffff (Sage_net.Bytes_util.get_u16 b 0)
  | Error e -> Alcotest.fail e

let test_view_variable_field_flag () =
  let v = Pv.create echo_layout in
  check Alcotest.bool "data is variable" true (Pv.is_variable_field v "Data ...");
  check Alcotest.bool "type is fixed" false (Pv.is_variable_field v "type")

let test_view_short_packet () =
  match Pv.deserialize echo_layout (Bytes.make 4 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short packet accepted"

(* ---- execution ---- *)

let make_rt ?request ?request_ip ?params ?state () =
  let proto = Pv.create echo_layout in
  let ip =
    Rt.ip_info ~src:(Addr.of_string_exn "10.0.1.50")
      ~dst:(Addr.of_string_exn "192.168.2.10") ()
  in
  Rt.create ?request ?request_ip ?params ?state ~proto ~ip ()

let test_exec_assign_and_read () =
  let rt = make_rt () in
  Exec.run_stmts rt [ Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int 8) ];
  check Alcotest.int64 "assigned" 8L (Result.get_ok (Pv.get rt.Rt.proto "type"))

let test_exec_if () =
  let rt = make_rt () in
  Exec.run_stmts rt
    [
      Ir.Assign (Ir.Lfield (Ir.Proto, "code"), Ir.Int 0);
      Ir.If
        ( Ir.Cmp ("eq", Ir.Field (Ir.Proto, "code"), Ir.Int 0),
          [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 42) ],
          [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 7) ] );
    ];
  check Alcotest.int64 "then branch" 42L
    (Result.get_ok (Pv.get rt.Rt.proto "identifier"))

let test_exec_discard_stops () =
  let rt = make_rt () in
  Exec.run_stmts rt
    [ Ir.Discard; Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int 9) ];
  check Alcotest.bool "discarded" true rt.Rt.discarded;
  check Alcotest.int64 "no further execution" 0L
    (Result.get_ok (Pv.get rt.Rt.proto "type"))

let test_exec_swap_ip () =
  let rt = make_rt () in
  Exec.run_stmts rt [ Ir.Do (Ir.Call ("swap_ip_addresses", [])) ];
  check Alcotest.string "src" "192.168.2.10" (Addr.to_string rt.Rt.ip.Rt.src);
  check Alcotest.string "dst" "10.0.1.50" (Addr.to_string rt.Rt.ip.Rt.dst)

let test_exec_swap_fields () =
  let rt = make_rt () in
  Exec.run_stmts rt
    [ Ir.Do (Ir.Call ("swap_fields", [ Ir.Field (Ir.Ip, "src"); Ir.Field (Ir.Ip, "dst") ])) ];
  check Alcotest.string "src swapped" "192.168.2.10" (Addr.to_string rt.Rt.ip.Rt.src)

let test_exec_checksum_chain () =
  (* the generated checksum computation yields a verifying message *)
  let rt = make_rt () in
  Exec.run_stmts rt
    [
      Ir.Assign (Ir.Lfield (Ir.Proto, "type"), Ir.Int 8);
      Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Int 123);
      Ir.Assign (Ir.Lfield (Ir.Proto, "checksum"), Ir.Int 0);
      Ir.Assign
        ( Ir.Lfield (Ir.Proto, "checksum"),
          Ir.Call
            ( "complement16",
              [ Ir.Call ("ones_complement_sum",
                         [ Ir.Call ("message_from", [ Ir.Field (Ir.Proto, "type") ]) ]) ] ) );
    ];
  let wire = Pv.serialize rt.Rt.proto in
  check Alcotest.bool "verifies" true (Sage_net.Checksum.verify wire)

let test_exec_request_fields () =
  let req = Pv.create echo_layout in
  ignore (Pv.set req "identifier" 777L);
  Pv.set_data req (Bytes.of_string "ping-payload");
  let rt = make_rt ~request:req () in
  Exec.run_stmts rt
    [
      Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Request_field (Ir.Proto, "identifier"));
      Ir.Assign (Ir.Lfield (Ir.Proto, "data"), Ir.Request_field (Ir.Proto, "data"));
    ];
  check Alcotest.int64 "copied id" 777L (Result.get_ok (Pv.get rt.Rt.proto "identifier"));
  check Alcotest.bytes "copied data" (Bytes.of_string "ping-payload")
    (Pv.get_data rt.Rt.proto)

let test_exec_missing_request_fails () =
  let rt = make_rt () in
  match
    Exec.run_stmts rt
      [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"),
                   Ir.Request_field (Ir.Proto, "identifier")) ]
  with
  | () -> Alcotest.fail "request read without a request"
  | exception Exec.Runtime_error _ -> ()

let test_exec_params_and_state () =
  let rt =
    make_rt
      ~params:[ ("current_time", Rt.VInt 999L) ]
      ~state:[ ("bfd.LocalDiscr", 5L) ] ()
  in
  Exec.run_stmts rt
    [
      Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Param "current_time");
      Ir.Assign (Ir.Lfield (Ir.State, "bfd.RemoteDiscr"), Ir.Field (Ir.State, "bfd.LocalDiscr"));
    ];
  check Alcotest.int64 "param" 999L (Result.get_ok (Pv.get rt.Rt.proto "identifier"));
  check Alcotest.int64 "state" 5L (Rt.state_get rt "bfd.RemoteDiscr")

let test_exec_missing_param_fails () =
  let rt = make_rt () in
  match
    Exec.run_stmts rt
      [ Ir.Assign (Ir.Lfield (Ir.Proto, "identifier"), Ir.Param "gateway_address") ]
  with
  | () -> Alcotest.fail "missing param tolerated"
  | exception Exec.Runtime_error _ -> ()

let test_exec_session_selection () =
  let rt = make_rt ~state:[ ("bfd.LocalDiscr", 7L) ] () in
  Exec.run_stmts rt [ Ir.Do (Ir.Call ("select_session", [ Ir.Int 7 ])) ];
  check Alcotest.int64 "found" 1L
    (Rt.int_of_value (Exec.eval_expr rt (Ir.Call ("session_found", []))));
  Exec.run_stmts rt [ Ir.Do (Ir.Call ("select_session", [ Ir.Int 9 ])) ];
  check Alcotest.int64 "not found" 0L
    (Rt.int_of_value (Exec.eval_expr rt (Ir.Call ("session_found", []))))

let test_exec_send_records () =
  let rt = make_rt () in
  Exec.run_stmts rt [ Ir.Send "echo reply message" ];
  check Alcotest.(list string) "sent" [ "echo reply message" ] rt.Rt.sent_messages

let test_exec_unknown_call_fails () =
  let rt = make_rt () in
  match Exec.run_stmts rt [ Ir.Do (Ir.Call ("no_such_builtin", [])) ] with
  | () -> Alcotest.fail "unknown builtin tolerated"
  | exception Exec.Runtime_error _ -> ()

let test_exec_arith () =
  let rt = make_rt () in
  check Alcotest.int64 "add" 5L
    (Rt.int_of_value (Exec.eval_expr rt (Ir.Call ("add", [ Ir.Int 2; Ir.Int 3 ]))));
  check Alcotest.int64 "sub" 1L
    (Rt.int_of_value (Exec.eval_expr rt (Ir.Call ("sub", [ Ir.Int 3; Ir.Int 2 ]))));
  check Alcotest.int64 "not" 0L
    (Rt.int_of_value (Exec.eval_expr rt (Ir.Not (Ir.Int 5))))

(* ---- property: bit packing roundtrips ---- *)

let prop_view_roundtrip =
  Q.test ~count:100 "packet view serialize/deserialize"
    Q.(pair (pair (int_range 0 255) (int_range 0 255))
         (pair (int_range 0 0xffff) (bytes_arb ~max_len:32 ())))
    (fun ((ty, code), (id, data)) ->
      let v = Pv.create echo_layout in
      ignore (Pv.set v "type" (Int64.of_int ty));
      ignore (Pv.set v "code" (Int64.of_int code));
      ignore (Pv.set v "identifier" (Int64.of_int id));
      Pv.set_data v (Bytes.copy data);
      match Pv.deserialize echo_layout (Pv.serialize v) with
      | Ok v' ->
        Pv.get v' "type" = Ok (Int64.of_int ty)
        && Pv.get v' "code" = Ok (Int64.of_int code)
        && Pv.get v' "identifier" = Ok (Int64.of_int id)
        && Bytes.equal (Pv.get_data v') data
      | Error _ -> false)

let suite =
  [
    tc "view get/set" test_view_get_set;
    tc "view truncates to width" test_view_truncates_to_width;
    tc "view serialize matches reference codec" test_view_serialize_matches_reference;
    tc "view deserialize roundtrip" test_view_deserialize_roundtrip;
    tc "view BFD bitfields" test_view_bitfields;
    tc "view serialize_from (checksum range)" test_view_serialize_from;
    tc "view variable-field flag" test_view_variable_field_flag;
    tc "view short packet" test_view_short_packet;
    tc "exec assign" test_exec_assign_and_read;
    tc "exec if" test_exec_if;
    tc "exec discard stops" test_exec_discard_stops;
    tc "exec swap_ip_addresses" test_exec_swap_ip;
    tc "exec swap_fields" test_exec_swap_fields;
    tc "exec checksum chain verifies" test_exec_checksum_chain;
    tc "exec request fields" test_exec_request_fields;
    tc "exec missing request" test_exec_missing_request_fails;
    tc "exec params and state" test_exec_params_and_state;
    tc "exec missing param" test_exec_missing_param_fails;
    tc "exec session selection" test_exec_session_selection;
    tc "exec send records" test_exec_send_records;
    tc "exec unknown builtin" test_exec_unknown_call_fails;
    tc "exec arithmetic" test_exec_arith;
    prop_view_roundtrip;
  ]
