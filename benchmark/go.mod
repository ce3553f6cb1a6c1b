// The benchmark is a module of its own so that it builds with its own build
// file; the replace directive points at the simulator it measures, and the
// partialtor/ module-path prefix is what lets it import partialtor/internal.
module partialtor/benchmark

go 1.24

require partialtor v0.0.0

replace partialtor => ../
