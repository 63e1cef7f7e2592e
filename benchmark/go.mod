// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the main module's `go build ./...`. Its
// import path sits under spice/, which is what lets it import the
// main module's internal packages through the replace below.
module spice/benchmark

go 1.22

require spice v0.0.0

replace spice => ../
