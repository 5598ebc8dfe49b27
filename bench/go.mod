module plfs/bench

go 1.22

require plfs v0.0.0

replace plfs => ../
