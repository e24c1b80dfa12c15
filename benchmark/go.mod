// The benchmark is a module of its own, nested in the repository's module:
// its import path is inside linefs/, so it may import linefs/internal/...,
// and the repository's own `go build ./...` and `go test ./...` do not
// reach it. Build and test it from this directory.
module linefs/benchmark

go 1.22

require linefs v0.0.0

replace linefs => ../
