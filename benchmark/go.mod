// The benchmark is a module of its own so that it builds with its own build
// file; it measures the parent module through the replace below.
module repro/benchmark

go 1.24.0

require repro v0.0.0

replace repro => ../
