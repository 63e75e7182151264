type item = { sentence : string; placement : Generate.placement option }

type variant = {
  variant_message : string;
  variant_role : Ir.role;
  fixed_assignments : (string * int) list;
}

let checksum_fields = [ "checksum" ]

let normalize_message m =
  let m = String.lowercase_ascii m in
  let m =
    (* drop a trailing " message" so "echo reply" matches "echo reply message" *)
    let suffix = " message" in
    if String.length m > String.length suffix
       && String.sub m (String.length m - String.length suffix) (String.length suffix)
          = suffix
    then String.sub m 0 (String.length m - String.length suffix)
    else m
  in
  String.trim m

let message_matches ~target ~variant =
  (* exact match after normalization — "echo" must not match "echo reply" *)
  String.equal
    (Context.strip_determiner (normalize_message target))
    (Context.strip_determiner (normalize_message variant))

let function_name ~protocol ~message ~role =
  let base =
    Sage_rfc.Header_diagram.c_identifier
      (String.lowercase_ascii protocol ^ " " ^ normalize_message message)
  in
  Printf.sprintf "%s_%s" base (Ir.role_name role)

(* ordering pass: checksum assignments (and the advice attached to their
   field) sink to the end of the function *)
let order_stmts stmts advice =
  let is_checksum_assign = function
    | Ir.Assign (Ir.Lfield (_, f), _) -> List.mem f checksum_fields
    | _ -> false
  in
  let checksum_stmts, other = List.partition is_checksum_assign stmts in
  let checksum_advice, other_advice =
    List.partition
      (fun (a : Generate.advice) ->
        List.mem (Sage_rfc.Header_diagram.c_identifier a.before_field) checksum_fields)
      advice
  in
  let stmts_of = List.concat_map (fun (a : Generate.advice) -> a.adv_stmts) in
  stmts_of other_advice @ other @ stmts_of checksum_advice @ checksum_stmts

let dedup_stmts stmts =
  let rec go acc = function
    | [] -> List.rev acc
    | s :: rest ->
      if List.exists (Ir.equal_stmt s) acc then go acc rest
      else go (s :: acc) rest
  in
  go [] stmts

let assemble ~protocol ~variants ~items =
  let known_target target =
    List.exists
      (fun v -> message_matches ~target ~variant:v.variant_message)
      variants
  in
  List.map
    (fun v ->
      let fixed =
        List.map
          (fun (f, value) -> Ir.Assign (Ir.Lfield (Ir.Proto, f), Ir.Int value))
          v.fixed_assignments
      in
      let stmts = ref [] and advice = ref [] in
      List.iter
        (fun item ->
          match item.placement with
          | None -> stmts := Ir.Comment item.sentence :: !stmts
          | Some pl ->
            let applies =
              match pl.Generate.target with
              | None -> true
              | Some target ->
                (* a target naming one of this section's message variants
                   scopes the code to that variant; a target naming some
                   OTHER message (e.g. "send a notification message") is
                   an action of this handler and stays *)
                message_matches ~target ~variant:v.variant_message
                || not (known_target target)
            in
            if applies then begin
              stmts := List.rev_append pl.Generate.stmts !stmts;
              advice := !advice @ pl.Generate.advice
            end)
        items;
      let body =
        order_stmts (fixed @ dedup_stmts (List.rev !stmts)) !advice
      in
      {
        Ir.fn_name =
          function_name ~protocol ~message:v.variant_message ~role:v.variant_role;
        protocol;
        message = v.variant_message;
        role = v.variant_role;
        body;
      })
    variants
