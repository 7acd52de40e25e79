// Package stats provides the measurement statistics of the paper's
// methodology: every test runs repeatedly (≥50 times in the paper) and
// the reported value summarizes the sample.
//
// Sample accumulates repeated measurements of one quantity and exposes
// the summaries the experiment layer reports: the mean and the 95%
// confidence half-width (the error bars of Figures 1–4). GeoMean
// aggregates rate ratios the way NBench composes its indices — the
// geometric mean, so that reciprocal ratios cancel.
//
// The summaries are deterministic functions of the inserted values in
// insertion order, which the experiment engine relies on: assembling
// shard payloads in shard order reproduces the serial path bit for bit.
package stats
