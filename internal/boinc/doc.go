// Package boinc implements the volunteer-computing layer of the paper's
// host-impact experiments: a BOINC-style client that fetches work units,
// runs an Einstein@home-like compute kernel at 100% of the virtual CPU,
// checkpoints its progress to disk, and reports results (§4.2.2–§4.2.3),
// plus a project server that replicates units across volunteers and
// validates returns by quorum (Anderson 2004, the redundancy mechanism
// public-resource projects use against faulty or malicious hosts).
//
// The server keeps an index of its under-replicated units — no
// canonical result yet, fewer replicas in flight than quorum still
// needs — so dispatching a replica costs time in the size of that
// index, not in the number of units ever issued. The index is ordered
// by ID string, not by mint index: padded IDs stop sorting numerically
// past index 999999 ("…-wu-1000000" < "…-wu-200000"), and string order
// is the order the server has always topped units up in, so every
// assignment, and every fleet result built on them, stays the same.
//
// The compute kernel is a real pulsar-search-shaped workload: generate a
// synthetic strain series, window it, FFT it (radix-2 Cooley–Tukey), and
// scan the power spectrum for candidate peaks — the hot loop structure of
// the actual Einstein@home application, at laptop scale.
package boinc
