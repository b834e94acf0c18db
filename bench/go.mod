module armcivt/bench

go 1.22

require armcivt v0.0.0

replace armcivt => ../
