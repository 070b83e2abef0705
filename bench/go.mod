module xclean/bench

go 1.22

require xclean v0.0.0

replace xclean => ../
