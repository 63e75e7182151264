type session_state = AdminDown | Down | Init | Up

let state_code = function AdminDown -> 0 | Down -> 1 | Init -> 2 | Up -> 3

let state_of_code = function
  | 0 -> Ok AdminDown
  | 1 -> Ok Down
  | 2 -> Ok Init
  | 3 -> Ok Up
  | c -> Error (Printf.sprintf "bad BFD state code %d" c)

let state_name = function
  | AdminDown -> "AdminDown"
  | Down -> "Down"
  | Init -> "Init"
  | Up -> "Up"

type packet = {
  version : int;
  diag : int;
  state : session_state;
  poll : bool;
  final : bool;
  control_plane_independent : bool;
  authentication_present : bool;
  demand : bool;
  multipoint : bool;
  detect_mult : int;
  my_discriminator : int32;
  your_discriminator : int32;
  desired_min_tx : int32;
  required_min_rx : int32;
  required_min_echo_rx : int32;
}

let default_packet =
  {
    version = 1;
    diag = 0;
    state = Down;
    poll = false;
    final = false;
    control_plane_independent = false;
    authentication_present = false;
    demand = false;
    multipoint = false;
    detect_mult = 3;
    my_discriminator = 0l;
    your_discriminator = 0l;
    desired_min_tx = 1_000_000l;
    required_min_rx = 1_000_000l;
    required_min_echo_rx = 0l;
  }

let bit b pos = if b then 1 lsl pos else 0

let encode p =
  let b = Bytes.make 24 '\000' in
  Bytes_util.set_u8 b 0 ((p.version lsl 5) lor (p.diag land 0x1f));
  Bytes_util.set_u8 b 1
    ((state_code p.state lsl 6)
     lor bit p.poll 5 lor bit p.final 4
     lor bit p.control_plane_independent 3
     lor bit p.authentication_present 2
     lor bit p.demand 1 lor bit p.multipoint 0);
  Bytes_util.set_u8 b 2 p.detect_mult;
  Bytes_util.set_u8 b 3 24;
  Bytes_util.set_u32 b 4 p.my_discriminator;
  Bytes_util.set_u32 b 8 p.your_discriminator;
  Bytes_util.set_u32 b 12 p.desired_min_tx;
  Bytes_util.set_u32 b 16 p.required_min_rx;
  Bytes_util.set_u32 b 20 p.required_min_echo_rx;
  b

let layer = "BFD"

let decode b =
  if Bytes.length b < 24 then
    Error (Decode_error.truncated ~layer ~need:24 ~have:(Bytes.length b))
  else
    let version = Bytes_util.get_u8 b 0 lsr 5 in
    let flags = Bytes_util.get_u8 b 1 in
    let length = Bytes_util.get_u8 b 3 in
    if version <> 1 then Error (Decode_error.bad_version ~layer version)
    else if length < 24 || length > Bytes.length b then
      Error
        (Decode_error.length_mismatch ~layer ~declared:length
           ~available:(Bytes.length b))
    else if flags land 1 <> 0 then
      Error (Decode_error.bad_field ~layer "multipoint bit" 1)
    else
      match state_of_code (flags lsr 6) with
      | Error _ -> Error (Decode_error.bad_field ~layer "state" (flags lsr 6))
      | Ok state ->
        Ok
          {
            version;
            diag = Bytes_util.get_u8 b 0 land 0x1f;
            state;
            poll = flags land (1 lsl 5) <> 0;
            final = flags land (1 lsl 4) <> 0;
            control_plane_independent = flags land (1 lsl 3) <> 0;
            authentication_present = flags land (1 lsl 2) <> 0;
            demand = flags land (1 lsl 1) <> 0;
            multipoint = false;
            detect_mult = Bytes_util.get_u8 b 2;
            my_discriminator = Bytes_util.get_u32 b 4;
            your_discriminator = Bytes_util.get_u32 b 8;
            desired_min_tx = Bytes_util.get_u32 b 12;
            required_min_rx = Bytes_util.get_u32 b 16;
            required_min_echo_rx = Bytes_util.get_u32 b 20;
          }

type session = {
  mutable session_state : session_state;
  mutable remote_session_state : session_state;
  mutable local_discr : int32;
  mutable remote_discr : int32;
  mutable local_diag : int;
  mutable desired_min_tx : int32;
  mutable required_min_rx : int32;
  mutable remote_min_rx : int32;
  mutable demand_mode : bool;
  mutable remote_demand_mode : bool;
  mutable detect_mult : int;
  mutable auth_type : int;
  mutable periodic_tx_enabled : bool;
}

let new_session ~local_discr =
  {
    session_state = Down;
    remote_session_state = Down;
    local_discr;
    remote_discr = 0l;
    local_diag = 0;
    desired_min_tx = 1_000_000l;
    required_min_rx = 1_000_000l;
    remote_min_rx = 1l;
    demand_mode = false;
    remote_demand_mode = false;
    detect_mult = 3;
    auth_type = 0;
    periodic_tx_enabled = true;
  }

let bool_to_i32 b = if b then 1l else 0l

let get_var s name =
  match String.lowercase_ascii name with
  | "bfd.sessionstate" -> Ok (Int32.of_int (state_code s.session_state))
  | "bfd.remotesessionstate" -> Ok (Int32.of_int (state_code s.remote_session_state))
  | "bfd.localdiscr" -> Ok s.local_discr
  | "bfd.remotediscr" -> Ok s.remote_discr
  | "bfd.localdiag" -> Ok (Int32.of_int s.local_diag)
  | "bfd.desiredmintxinterval" -> Ok s.desired_min_tx
  | "bfd.requiredminrxinterval" -> Ok s.required_min_rx
  | "bfd.remoteminrxinterval" -> Ok s.remote_min_rx
  | "bfd.demandmode" -> Ok (bool_to_i32 s.demand_mode)
  | "bfd.remotedemandmode" -> Ok (bool_to_i32 s.remote_demand_mode)
  | "bfd.detectmult" -> Ok (Int32.of_int s.detect_mult)
  | "bfd.authtype" -> Ok (Int32.of_int s.auth_type)
  | "bfd.periodictx" -> Ok (bool_to_i32 s.periodic_tx_enabled)
  | _ -> Error (Printf.sprintf "unknown BFD state variable %S" name)

let set_var s name v =
  let as_state () = state_of_code (Int32.to_int v) in
  match String.lowercase_ascii name with
  | "bfd.sessionstate" ->
    Result.map (fun st -> s.session_state <- st) (as_state ())
  | "bfd.remotesessionstate" ->
    Result.map (fun st -> s.remote_session_state <- st) (as_state ())
  | "bfd.localdiscr" -> Ok (s.local_discr <- v)
  | "bfd.remotediscr" -> Ok (s.remote_discr <- v)
  | "bfd.localdiag" -> Ok (s.local_diag <- Int32.to_int v)
  | "bfd.desiredmintxinterval" -> Ok (s.desired_min_tx <- v)
  | "bfd.requiredminrxinterval" -> Ok (s.required_min_rx <- v)
  | "bfd.remoteminrxinterval" -> Ok (s.remote_min_rx <- v)
  | "bfd.demandmode" -> Ok (s.demand_mode <- v <> 0l)
  | "bfd.remotedemandmode" -> Ok (s.remote_demand_mode <- v <> 0l)
  | "bfd.detectmult" -> Ok (s.detect_mult <- Int32.to_int v)
  | "bfd.authtype" -> Ok (s.auth_type <- Int32.to_int v)
  | "bfd.periodictx" -> Ok (s.periodic_tx_enabled <- v <> 0l)
  | _ -> Error (Printf.sprintf "unknown BFD state variable %S" name)

(* RFC 5880 §6.8.6 reception rules (the subset whose sentences the
   pipeline parses), hand-written as the interop reference. *)
let receive_control_packet s (p : packet) =
  if p.version <> 1 then `Discard "version"
  else if p.detect_mult = 0 then `Discard "detect mult is zero"
  else if p.multipoint then `Discard "multipoint bit"
  else if Int32.equal p.my_discriminator 0l then `Discard "my discriminator is zero"
  else if
    Int32.equal p.your_discriminator 0l
    && not (p.state = Down || p.state = AdminDown)
  then `Discard "your discriminator zero and state not Down/AdminDown"
  else if
    (not (Int32.equal p.your_discriminator 0l))
    && not (Int32.equal p.your_discriminator s.local_discr)
  then `Discard "no session matches your discriminator"
  else begin
    s.remote_discr <- p.my_discriminator;
    s.remote_session_state <- p.state;
    s.remote_demand_mode <- p.demand;
    s.remote_min_rx <- p.required_min_rx;
    (* state machine (3-state, §6.8.6) *)
    (match s.session_state, p.state with
     | AdminDown, _ -> ()
     | _, AdminDown ->
       if s.session_state <> Down then begin
         s.local_diag <- 3 (* neighbor signaled session down *);
         s.session_state <- Down
       end
     | Down, Down -> s.session_state <- Init
     | Down, Init -> s.session_state <- Up
     | Down, Up -> ()
     | Init, (Init | Up) -> s.session_state <- Up
     | Init, Down -> ()
     | Up, Down ->
       s.local_diag <- 3;
       s.session_state <- Down
     | Up, (Init | Up) -> ());
    (* demand mode: cease periodic transmission when Demand is active on
       the remote system and both ends are Up *)
    if s.remote_demand_mode && s.session_state = Up && s.remote_session_state = Up
    then s.periodic_tx_enabled <- false
    else s.periodic_tx_enabled <- true;
    `Ok
  end

let pp_packet ppf p =
  Fmt.pf ppf "BFDv%d state %s, flags [%s%s%s%s], diag %d, mult %d, my %ld, your %ld"
    p.version (state_name p.state)
    (if p.poll then "P" else "")
    (if p.final then "F" else "")
    (if p.demand then "D" else "")
    (if p.authentication_present then "A" else "")
    p.diag p.detect_mult p.my_discriminator p.your_discriminator

let equal_packet a b = Bytes.equal (encode a) (encode b)
