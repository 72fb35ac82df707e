module lcpio/bench

go 1.22

require lcpio v0.0.0

replace lcpio => ../
