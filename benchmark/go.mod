module ompss-benchmark

go 1.22
