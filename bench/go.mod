module climber/bench

go 1.24

require climber v0.0.0

replace climber => ../
