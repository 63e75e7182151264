(** The student-implementation study (paper §2.1, Tables 2 and 3),
    reproduced by fault injection.

    The paper examined 39 student ICMP implementations: 24 interoperated
    with Linux ping, 1 did not compile, and 14 exhibited six (overlapping)
    categories of error.  We regenerate that population: each faulty
    implementation wraps the reference echo-reply path with the packet
    mutations its fault set implies, and the same ping client classifies
    the failures. *)

type fault =
  | Ip_header          (** e.g. forgot to reverse source/destination *)
  | Icmp_header        (** e.g. left the type field at 8 *)
  | Byte_order         (** identifier/sequence in host byte order *)
  | Payload            (** echoed data corrupted *)
  | Length             (** reply truncated *)
  | Checksum of checksum_interpretation

and checksum_interpretation =
  | Specific_header_size     (** Table 3 #1: first 8 bytes only *)
  | Partial_header           (** #2: first 4 bytes *)
  | Header_and_payload       (** #3: the correct full range *)
  | Ip_header_size           (** #4: a 20-byte range *)
  | Header_payload_options   (** #5: full range plus phantom option bytes *)
  | Incremental_update       (** #6: RFC 1624 update of the request's checksum *)
  | Magic_constant of int    (** #7 *)

val checksum_interpretations : checksum_interpretation list
(** The seven Table 3 interpretations (with one representative magic
    constant). *)

val interpretation_name : checksum_interpretation -> string

val interoperates : checksum_interpretation -> bool
(** Whether a reply checksummed this way passes the reference verifier
    (computed, not hard-coded). *)

type student = {
  id : int;
  faults : fault list;   (** empty = correct implementation *)
  compiles : bool;
}

val cohort : student list
(** The 39-student population: 24 correct, 1 non-compiling, 14 faulty
    with fault-category frequencies matching Table 2. *)

val service_of : student -> Icmp_service.t
(** The student's ICMP implementation: reference behaviour distorted by
    the student's faults. *)

val fault_label : fault -> string
(** The Table 2 row this fault belongs to. *)

val table2_rows : string list
(** Row labels in Table 2 order. *)
