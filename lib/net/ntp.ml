type t = {
  leap_indicator : int;
  status : int;
  stratum : int;
  poll : int;
  precision : int;
  sync_distance : int32;
  drift_rate : int32;
  reference_clock_id : int32;
  reference_timestamp : int64;
  originate_timestamp : int64;
  receive_timestamp : int64;
  transmit_timestamp : int64;
}

let ntp_port = 123

let default =
  {
    leap_indicator = 0;
    status = 0;
    stratum = 0;
    poll = 6;
    precision = 0;
    sync_distance = 0l;
    drift_rate = 0l;
    reference_clock_id = 0l;
    reference_timestamp = 0L;
    originate_timestamp = 0L;
    receive_timestamp = 0L;
    transmit_timestamp = 0L;
  }

let signed_byte v = if v < 0 then v + 256 else v
let unsign_byte v = if v > 127 then v - 256 else v

let encode t =
  let b = Bytes.make 48 '\000' in
  Bytes_util.set_u8 b 0 (((t.leap_indicator land 0x3) lsl 6) lor (t.status land 0x3f));
  Bytes_util.set_u8 b 1 t.stratum;
  Bytes_util.set_u8 b 2 (signed_byte t.poll);
  Bytes_util.set_u8 b 3 (signed_byte t.precision);
  Bytes_util.set_u32 b 4 t.sync_distance;
  Bytes_util.set_u32 b 8 t.drift_rate;
  Bytes_util.set_u32 b 12 t.reference_clock_id;
  Bytes_util.set_u64 b 16 t.reference_timestamp;
  Bytes_util.set_u64 b 24 t.originate_timestamp;
  Bytes_util.set_u64 b 32 t.receive_timestamp;
  Bytes_util.set_u64 b 40 t.transmit_timestamp;
  b

let decode b =
  if Bytes.length b < 48 then
    Error (Decode_error.truncated ~layer:"NTP" ~need:48 ~have:(Bytes.length b))
  else
    Ok
      {
        leap_indicator = Bytes_util.get_u8 b 0 lsr 6;
        status = Bytes_util.get_u8 b 0 land 0x3f;
        stratum = Bytes_util.get_u8 b 1;
        poll = unsign_byte (Bytes_util.get_u8 b 2);
        precision = unsign_byte (Bytes_util.get_u8 b 3);
        sync_distance = Bytes_util.get_u32 b 4;
        drift_rate = Bytes_util.get_u32 b 8;
        reference_clock_id = Bytes_util.get_u32 b 12;
        reference_timestamp = Bytes_util.get_u64 b 16;
        originate_timestamp = Bytes_util.get_u64 b 24;
        receive_timestamp = Bytes_util.get_u64 b 32;
        transmit_timestamp = Bytes_util.get_u64 b 40;
      }

let timestamp_of_seconds secs =
  let whole = Int64.of_float (Float.trunc secs) in
  let frac = Int64.of_float ((secs -. Float.trunc secs) *. 4294967296.0) in
  Int64.logor (Int64.shift_left whole 32) (Int64.logand frac 0xffffffffL)

let seconds_of_timestamp ts =
  let whole = Int64.to_float (Int64.shift_right_logical ts 32) in
  let frac = Int64.to_float (Int64.logand ts 0xffffffffL) /. 4294967296.0 in
  whole +. frac

let pp ppf t =
  Fmt.pf ppf "NTPv1 li %d, status %d, stratum %d, poll %d, precision %d"
    t.leap_indicator t.status t.stratum t.poll t.precision

let equal a b = Bytes.equal (encode a) (encode b)
