(** The one build path: how source becomes a loadable image.

    A sandboxed build rewrites the source, resolves the rewrite's site
    table to sandbox-relative addresses, assembles the result and
    packages it as an ELF that carries the table in its [.lfi_sites]
    section, so every sandboxed image can be attributed by the
    overhead profiler.  A native build packages the source as written:
    an unsandboxed image, or hand-guarded code that must verify as it
    is.

    MiniC callers pass [Compile.compile prog]; the compiler sits above
    the runtime, so these functions take assembly, not a program. *)

open Lfi_arm64

(** [src] rewritten at [config], and the rewrite's stats. *)
let sandboxed (config : Config.t) (src : Source.t) :
    Lfi_elf.Elf.t * Rewriter.stats =
  let out, stats = Rewriter.rewrite ~config src in
  let sites = Rewriter.resolve_sites ~input:src ~output:out stats in
  (Lfi_elf.Elf.of_image ~sites (Assemble.assemble out), stats)

(** [Some config]: {!sandboxed}; [None]: native. *)
let elf (config : Config.t option) (src : Source.t) : Lfi_elf.Elf.t =
  match config with
  | None -> Lfi_elf.Elf.of_image (Assemble.assemble src)
  | Some config -> fst (sandboxed config src)
