module infogram/benchmark

go 1.24

require infogram v0.0.0

replace infogram => ../
