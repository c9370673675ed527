// The benchmark is a module of its own so that the product module's build
// and tests never depend on it; the module path sits under repro/ so it may
// import repro/internal/... (Go's internal rule goes by import path).
module repro/bench

go 1.24.0

require repro v0.0.0

replace repro => ../
