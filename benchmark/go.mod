// The benchmark is a module of its own so that it builds from this directory
// alone, next to whatever engine the checkout holds: it needs nothing from the
// root module's vendor tree, and the root `go build ./...` does not see it.
// The module path sits under maybms/ so the engine's internal packages stay
// importable.
module maybms/benchmark

go 1.22

require maybms v0.0.0

replace maybms => ../
