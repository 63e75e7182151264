(* Shared memoized pipeline runs over the full 8-corpus set, so the
   golden-snapshot and trace suites exercise identical runs without
   paying for the pipeline twice per corpus.  Names match the CLI
   corpus spelling: the "-rw" suffix marks the rewritten
   (disambiguated) specification text. *)

module P = Sage.Pipeline
module Trace = Sage_trace.Trace

type corpus = {
  name : string;
  spec : P.spec Lazy.t;
  title : string;
  text : string;
}

let corpora =
  [
    {
      name = "icmp";
      spec = lazy (P.icmp_spec ());
      title = Sage_corpus.Icmp_rfc.title;
      text = Sage_corpus.Icmp_rfc.text;
    };
    {
      name = "icmp-rw";
      spec = lazy (P.icmp_spec ());
      title = Sage_corpus.Icmp_rfc.title;
      text = Sage_corpus.Icmp_rfc.rewritten_text;
    };
    {
      name = "igmp";
      spec = lazy (P.igmp_spec ());
      title = Sage_corpus.Igmp_rfc.title;
      text = Sage_corpus.Igmp_rfc.text;
    };
    {
      name = "ntp";
      spec = lazy (P.ntp_spec ());
      title = Sage_corpus.Ntp_rfc.title;
      text = Sage_corpus.Ntp_rfc.text;
    };
    {
      name = "bfd";
      spec = lazy (P.bfd_spec ());
      title = Sage_corpus.Bfd_rfc.title;
      text = Sage_corpus.Bfd_rfc.text;
    };
    {
      name = "bfd-rw";
      spec = lazy (P.bfd_spec ());
      title = Sage_corpus.Bfd_rfc.title;
      text = Sage_corpus.Bfd_rfc.rewritten_text;
    };
    {
      name = "tcp";
      spec = lazy (P.tcp_spec ());
      title = Sage_corpus.Tcp_rfc.title;
      text = Sage_corpus.Tcp_rfc.text;
    };
    {
      name = "bgp";
      spec = lazy (P.bgp_spec ());
      title = Sage_corpus.Bgp_rfc.title;
      text = Sage_corpus.Bgp_rfc.text;
    };
  ]

let find name = List.find (fun c -> c.name = name) corpora

let memo f =
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create 8 in
  fun c ->
    match Hashtbl.find_opt tbl c.name with
    | Some v -> v
    | None ->
      let v = f c in
      Hashtbl.replace tbl c.name v;
      v

(* Plain sequential run: what `sage run` without --trace produces. *)
let run_of =
  memo (fun c -> P.run (Lazy.force c.spec) ~title:c.title ~text:c.text)

(* The same run under a Logical-clock tracer at --jobs 1: the
   deterministic configuration the trace-format tests pin down. *)
let traced_run_of =
  memo (fun c ->
      let trace = Trace.create ~clock:Trace.Logical () in
      let run =
        P.run_document ~jobs:1 ~trace (Lazy.force c.spec) ~title:c.title
          ~text:c.text
      in
      (run, trace))

(* The profile row a traced run recorded under [name], if any. *)
let profile_row trace name =
  List.find_opt (fun r -> r.Trace.row_name = name) (Trace.profile trace)
