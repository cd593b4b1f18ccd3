module spider/bench

go 1.24

require spider v0.0.0

replace spider => ../
