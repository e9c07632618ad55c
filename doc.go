// Package repro is an energy-aware disk storage system scheduler and
// simulator: a from-scratch Go reproduction of "Exploiting Replication for
// Energy-Aware Scheduling in Disk Storage Systems" (Chou, Kim, Rotem;
// ICDCS 2011).
//
// The root package exports nothing. The binaries under cmd/ are the way
// in: esched runs one simulation or a scheduler comparison, figures
// regenerates the paper's evaluation, eschedd serves scheduling decisions
// over HTTP, tracegen writes synthetic traces, tracelens analyzes event
// logs and breakeven prints the power model. The library lives under
// internal/, and each package's checked Examples show its use (the README
// quick start is ExampleRunOnline in internal/storage). The root directory
// holds only the cross-package allocation pins and benchmarks.
package repro
