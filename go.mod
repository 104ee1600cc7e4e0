module repro

go 1.23

require golang.org/x/tools v0.28.1-0.20250131145412-98746475647e
