type 'b outcome = Value of 'b | Failed of exn * Printexc.raw_backtrace

let map ?workers ?on_done f xs =
  let n = List.length xs in
  let workers =
    match workers with
    | Some w when w >= 1 -> w
    | Some _ -> invalid_arg "Parallel.map: workers must be >= 1"
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let progress =
    match on_done with Some g -> g | None -> fun _ -> ()
  in
  if n = 0 then []
  else if workers = 1 || n = 1 then
    List.mapi
      (fun i x ->
        let r = f x in
        progress (i + 1);
        r)
      xs
  else begin
    let tasks = Boxed_array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* Capture the backtrace at the failure site: the exception is
             re-raised on the caller's domain, where the original trace
             would otherwise be lost. *)
          let r =
            try Value (f tasks.(i))
            with e -> Failed (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          progress (1 + Atomic.fetch_and_add completed 1);
          go ()
        end
      in
      go ()
    in
    let domains =
      List.init (min workers n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Value v) -> v
         | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let once f =
  let lock = Mutex.create () in
  let cell = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !cell with
        | Some v -> v
        | None ->
            let v = f () in
            cell := Some v;
            v)
