(* Seed-1 verdicts of every workload, one line per design:
   "<workload> <design> <injected> <wrong> <sdc> <md5 of the verdicts>".
   A run with --seed 1 prints its own lines as "verdicts ..." on stdout;
   they must equal these.  The reduced-exhaustive wrong counts are the
   exact reduced-scale Table 3. *)
let seed1 =
  [
    "paper-p2 tmr_p2 1000 8 8 35a96936022299e092bd7b8a5e3251da";
    "reduced-exhaustive standard 8091 4179 4179 bbb637167f7115e5cc6c0b3dd45b160d";
    "reduced-exhaustive tmr_p1 36638 732 732 e7af3d42a1f4a4f82a643accfe542e82";
    "reduced-exhaustive tmr_p2 31728 1052 1052 8e7975b135c670583593cdfe486372fe";
    "reduced-exhaustive tmr_p3 28795 1240 1240 663e0f86493173e8db1fc69d85503e13";
    "reduced-exhaustive tmr_p3_nv 24767 756 756 ef5a095f2ba595df624e2e4547b1b8bc";
    "reduced-forensics tmr_p2 20000 443 72 4d8c193370b5f0bc57b10e7d33d3ddc0";
  ]
