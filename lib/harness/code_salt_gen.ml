(* Prints code_salt.ml: one digest over the files named on the command
   line, each taken as its relative path and its contents' digest, so the
   salt moves with any edit and not with where or when the tree was made. *)
let () =
  let files = List.sort compare (List.tl (Array.to_list Sys.argv)) in
  let line f = f ^ "\000" ^ Digest.to_hex (Digest.file f) ^ "\n" in
  let all = String.concat "" (List.map line files) in
  Printf.printf "let digest = %S\n" (Digest.to_hex (Digest.string all))
