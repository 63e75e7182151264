(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address (32 bits). *)

val of_string : string -> (t, string) result
(** Parse dotted-decimal, e.g. ["10.0.1.1"]. *)

val of_string_exn : string -> t
val of_int32 : int32 -> t
val to_int32 : t -> int32
val of_octets : int -> int -> int -> int -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

val broadcast : t
(** 255.255.255.255 *)

val any : t
(** 0.0.0.0 *)

val is_multicast : t -> bool
(** Class D: 224.0.0.0 – 239.255.255.255 (IGMP group addresses). *)

type prefix
(** An address block in CIDR notation, e.g. 10.0.1.0/24. *)

val prefix_of_string_exn : string -> prefix
val prefix : t -> int -> prefix
val mem : t -> prefix -> bool
(** [mem addr p] — does [addr] fall inside block [p]? *)
