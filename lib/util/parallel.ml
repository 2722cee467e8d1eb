let default_jobs () = Domain.recommended_domain_count ()

let run tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    (* Tasks are dealt out in contiguous groups, one per executing
       domain; a group runs its tasks in sequence, recording each
       outcome, so every task executes even when an earlier one raises.
       Never more domains than cores: a descheduled domain stalls every
       stop-the-world minor collection. *)
    let outcomes = Array.make n None in
    let g = min n (max 1 (default_jobs ())) in
    let group j () =
      for i = j * n / g to ((j + 1) * n / g) - 1 do
        match tasks.(i) () with () -> () | exception e -> outcomes.(i) <- Some e
      done
    in
    let spawned = Array.init (g - 1) (fun j -> Domain.spawn (group (j + 1))) in
    group 0 ();
    Array.iter Domain.join spawned;
    Array.iter (function Some e -> raise e | None -> ()) outcomes
  end
