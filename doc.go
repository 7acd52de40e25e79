// Package vmdg is a reproduction of Domingues, Araujo & Silva,
// "Evaluating the Performance and Intrusiveness of Virtual Machines for
// Desktop Grid Computing" (IPDPS 2009 workshops / PCGrid).
//
// The library lives under internal/: a deterministic simulation of the
// paper's testbed (dual-core machine, Windows-like host scheduler,
// Linux-like guest kernel, four calibrated VMM cost models) plus real
// implementations of every benchmark the paper runs (7z/LZMA-style codec,
// matrix multiply, IOBench, iperf-style NetBench, the ten NBench/ByteMark
// kernels, and an Einstein@home-style FFT worker under a BOINC-style
// client). internal/core defines the experiments that regenerate Figures
// 1–8, each decomposed into independent deterministic shards.
//
// internal/engine layers a registry and a parallel runner on top: every
// figure, ablation, and sensitivity experiment registers against an
// Experiment interface, and a worker pool fans their shards out across
// cores — each simulation stays single-threaded, results are
// bit-identical for any worker count, and completed shards are cached by
// content key so repeated invocations skip finished work. The `dgrid`
// subcommand CLI (run/list/report/fleet/sweep/serve) drives the engine;
// bench_test.go at this level exposes one testing.B benchmark per figure
// plus engine throughput benchmarks.
//
// See README.md for a tour and EXPERIMENTS.md for the machine-generated
// paper-vs-measured tables (`dgrid report` regenerates them).
package vmdg
