(* The differential oracle suite.  Each oracle states an invariant the
   generated code must satisfy on *every* input; a violation is a
   finding.  Checks run in a fixed order and stop at the first
   violation, so a given (function, packet, env) yields a deterministic
   single verdict.

   - Never_raise: the backend must discard or finish, never raise a
     runtime error or exhaust the step budget.
   - Round_trip: deserialize-then-serialize is the identity on the
     bytes the layout covers (encode . decode = id).
   - Decoder_agreement: on packets both sides accept, every field the
     hand-written reference decoder reports must equal what the
     executing backend's packet view read from the same bytes.
   - Backend_agreement: when the iteration also ran the alternate
     execution backend, the two outcomes must be observably identical
     — discard decision, error, output bytes, sends, calls, final IP
     header and state.  Runs before the checksum oracles so a
     mis-compilation surfaces as the divergence it is, not as the
     checksum failure it causes.
   - Checksum: when the generated function assigns the protocol
     checksum and did not discard, the produced message must verify
     under the reference Internet-checksum (whole-message range — the
     interoperable interpretation of the paper's §2.1 ambiguity).
   - Verified_output: a produced ICMP message the reference decoder
     accepts must also pass its checksum verification (the generated
     sender must not emit near-valid-but-corrupt messages).
   - Requirement: an RFC 2119 requirement mined from the specification
     (lib/reqs) whose guard holds on this input must see its obligation
     met by the outcome.  Runs last so the structural oracles keep
     their verdicts; the kind carries the RQ id so shrinking pins the
     specific requirement, not just "some requirement". *)

module Bytes_util = Sage_net.Bytes_util
module Checksum = Sage_net.Checksum
module Observe = Sage_net.Observe
module Icmp = Sage_net.Icmp
module Backend = Sage_backend.Backend
module Req = Sage_reqs.Req

type kind =
  | Never_raise
  | Round_trip
  | Decoder_agreement
  | Backend_agreement
  | Checksum
  | Verified_output
  | Requirement of string

let kind_name = function
  | Never_raise -> "never-raise"
  | Round_trip -> "round-trip"
  | Decoder_agreement -> "decoder-agreement"
  | Backend_agreement -> "backend-agreement"
  | Checksum -> "checksum"
  | Verified_output -> "verified-output"
  | Requirement id -> "requirement " ^ id

type violation = { kind : kind; detail : string }

(* Protocols whose generated checksum covers the whole message, so the
   reference whole-message verify applies.  (BFD/BGP layouts have no
   checksum; NTP delegates to the UDP encapsulation.) *)
let whole_message_checksum = [ "ICMP"; "IGMP"; "TCP" ]

let check_never_raise (o : Backend.outcome) =
  match o.Backend.error with
  | Some e -> Some { kind = Never_raise; detail = e }
  | None -> None

let check_round_trip ~packet (o : Backend.outcome) =
  if Bytes.equal o.Backend.reserialized packet then None
  else
    Some
      {
        kind = Round_trip;
        detail =
          Printf.sprintf "decode/encode not identity: in [%s] out [%s]"
            (Bytes_util.hex packet)
            (Bytes_util.hex o.Backend.reserialized);
      }

let check_decoder_agreement ~protocol ~packet (o : Backend.outcome) =
  match Observe.fields ~protocol packet with
  | None -> None (* reference decoder rejected or absent: one-sided *)
  | Some observations ->
    List.find_map
      (fun (name, expected) ->
        match o.Backend.read_field name with
        | Error _ -> None (* field not in this function's layout *)
        | Ok got ->
          if Int64.equal got expected then None
          else
            Some
              {
                kind = Decoder_agreement;
                detail =
                  Printf.sprintf
                    "field %s: reference decoder read %Ld, interpreter view \
                     read %Ld"
                    name expected got;
              })
      observations

let check_backend_agreement ~other (o : Backend.outcome) =
  match other with
  | None -> None
  | Some (Error e) ->
    (* the primary backend accepted the packet structurally *)
    Some
      {
        kind = Backend_agreement;
        detail =
          Printf.sprintf "%s backend rejected a packet %s accepted: %s"
            (Backend.choice_name (Backend.other o.Backend.backend))
            (Backend.choice_name o.Backend.backend)
            e;
      }
  | Some (Ok alt) ->
    (match Backend.diff o alt with
     | None -> None
     | Some detail -> Some { kind = Backend_agreement; detail })

let check_checksum ~protocol (o : Backend.outcome) =
  if
    o.Backend.assigns_checksum
    && (not o.Backend.discarded)
    && List.mem protocol whole_message_checksum
    && not (Checksum.verify o.Backend.output)
  then
    Some
      {
        kind = Checksum;
        detail =
          Printf.sprintf "produced message fails checksum verification: [%s]"
            (Bytes_util.hex o.Backend.output);
      }
  else None

let check_verified_output ~protocol (o : Backend.outcome) =
  (* ICMP only: its reference checksum_ok covers the whole message.
     (IGMP's checksum_ok verifies just the 8 header bytes, which a
     variable tail would legitimately break.) *)
  if protocol = "ICMP" && not o.Backend.discarded then
    match Icmp.decode o.Backend.output with
    | Error _ -> None
    | Ok _ ->
      if Icmp.checksum_ok o.Backend.output then None
      else
        Some
          {
            kind = Verified_output;
            detail =
              Printf.sprintf
                "decodable ICMP output fails checksum verification: [%s]"
                (Bytes_util.hex o.Backend.output);
          }
  else None

let check_requirements ~reqs ~req_env (o : Backend.outcome) =
  match (reqs, req_env) with
  | [], _ | _, None -> None
  | reqs, Some env ->
    (match Req.first_violation ~env ~o reqs with
     | Some (r, detail) -> Some { kind = Requirement r.Req.id; detail }
     | None -> None)

let check ~protocol ~packet ?other ?(reqs = []) ?req_env
    (o : Backend.outcome) =
  match check_never_raise o with
  | Some v -> Some v
  | None -> (
    match check_round_trip ~packet o with
    | Some v -> Some v
    | None -> (
      match check_decoder_agreement ~protocol ~packet o with
      | Some v -> Some v
      | None -> (
        match check_backend_agreement ~other o with
        | Some v -> Some v
        | None -> (
          match check_checksum ~protocol o with
          | Some v -> Some v
          | None -> (
            match check_verified_output ~protocol o with
            | Some v -> Some v
            | None -> check_requirements ~reqs ~req_env o)))))
