module dharma/bench

go 1.24

require dharma v0.0.0

replace dharma => ../
