(* Test programs shared by more than one suite. *)

open Lfi_minic
open Lfi_fuzz.Gen_minic

(* 400 functions whose bodies come from the fuzz generator's MiniC
   statements, the shape of perfbench's synthetic build program. *)
let many_functions_program () : Ast.program =
  let rand = Random.State.make [| 7 |] in
  let stmts = QCheck.Gen.list_size (QCheck.Gen.int_range 4 10) (gen_stmt 2) in
  let f k =
    let body = QCheck.Gen.generate1 ~rand stmts in
    let result = QCheck.Gen.generate1 ~rand (gen_expr 2) in
    Ast.{ name = Printf.sprintf "s%d" k;
          params = [ ("x", Int); ("y", Int); ("z", Int) ]; ret = Int;
          body = body @ [ Return result ] }
  in
  (* the generated statements call the generator's [mix] helper *)
  let helper =
    (QCheck.Gen.generate1 ~rand gen_program).Ast.funcs
    |> List.filter (fun (fn : Ast.func) -> fn.name = "mix")
  in
  let main =
    Ast.{ name = "main"; params = []; ret = Int; body = [ Return (Int 0) ] }
  in
  Ast.{ globals = [ Zeroed ("g", 512) ];
        funcs = helper @ List.init 400 f @ [ main ] }
