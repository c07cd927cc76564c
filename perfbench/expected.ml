(* Expected outputs, recorded once by [perfbench.exe record] with the
   reference interpreter Lfi_minic.Interp, never with the compiler
   under test: the SPEC proxies' exit checksums and the value of
   xzbox's dict_sum export. *)

let spec : (string * int) list =
  [
    ("gcc", 13811839);
    ("mcf", 702164774);
    ("namd", 615);
    ("parest", 5587758);
    ("povray", 122444);
    ("lbm", 7876806);
    ("omnetpp", 38478);
    ("xalancbmk", 12983);
    ("x264", 808159);
    ("deepsjeng", 200044);
    ("imagick", 107818);
    ("leela", 11521);
    ("nab", 83087489);
    ("xz", 3605602);
  ]

let dict_sum = 531527816
