module icache/benchmark

go 1.22

require icache v0.0.0

replace icache => ../
