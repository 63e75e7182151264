let available = Sched_backend.available
let default_jobs = Sched_backend.default_jobs

let no_hook (_ : int) body = body ()

let map ?(around_worker = no_hook) ~jobs f items =
  let n = Array.length items in
  let jobs = min jobs n in
  if n = 0 then [||]
  else if jobs <= 1 || not Sched_backend.available then begin
    let out = ref [||] in
    around_worker 0 (fun () -> out := Array.map f items);
    !out
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let worker id () =
      around_worker id (fun () ->
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= n || Atomic.get error <> None then continue := false
            else
              match f items.(i) with
              | v -> results.(i) <- Some v
              | exception exn ->
                ignore (Atomic.compare_and_set error None (Some exn))
          done)
    in
    (* jobs - 1 spawned workers; the calling thread is worker 0 *)
    let handles =
      List.init (jobs - 1) (fun k -> Sched_backend.spawn (worker (k + 1)))
    in
    worker 0 ();
    List.iter Sched_backend.join handles;
    (match Atomic.get error with Some exn -> raise exn | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ~jobs f items = Array.to_list (map ~jobs f (Array.of_list items))
