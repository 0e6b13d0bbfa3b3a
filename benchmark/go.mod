module adcc/benchmark

go 1.24

require adcc v0.0.0

replace adcc => ../
