module github.com/bsc-repro/ompss

go 1.23
