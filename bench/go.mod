module snaple/bench

go 1.24

require snaple v0.0.0

replace snaple => ../
