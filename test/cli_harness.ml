(* Shared driver for tests that exercise the real binaries: resolve
   the executable, run it through /bin/sh, capture exit code and both
   output streams.  Used by the usage-error suite (test_cli), the
   seeded-fixture matrix (test_seeded_matrix) and the paper page
   (test_golden_snapshots), so the binary-invocation plumbing lives in
   exactly one place. *)

(* the binaries sit next to the test executable in _build/default;
   resolve them relative to our own path so the suite is cwd-independent *)
let exe dir name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat dir name))

let cli = exe "bin" "sage_cli.exe"
let bench = exe "bench" "main.exe"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* run a binary through /bin/sh, capturing exit code, stdout, stderr *)
let run exe args =
  let out = Filename.temp_file "sage_cli" ".out" in
  let err = Filename.temp_file "sage_cli" ".err" in
  let code = Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe args out err) in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let run_cli = run cli

let contains = Astring_contains.contains
