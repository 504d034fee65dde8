// The benchmark is a module of its own so that it builds with its own
// build file; the replace directive points at the repository it measures.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
