module adhocbcast/bench

go 1.22

require adhocbcast v0.0.0

replace adhocbcast => ../
