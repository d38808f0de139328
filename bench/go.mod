module arboretum/bench

go 1.22

require arboretum v0.0.0

replace arboretum => ../
