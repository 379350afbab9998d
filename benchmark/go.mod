module caf2go/benchmark

go 1.22

require caf2go v0.0.0

replace caf2go => ../
