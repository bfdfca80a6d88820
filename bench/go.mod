module github.com/mosaic-hpc/mosaic/bench

go 1.22

require github.com/mosaic-hpc/mosaic v0.0.0

replace github.com/mosaic-hpc/mosaic => ../
