module netwide/bench

go 1.24

require netwide v0.0.0

replace netwide => ../
