// Package serve sits outside the determinism analyzer's scope: the serving
// layer reads wall clocks and may sum in any order, so the stencil
// fixture's violations, repeated here, draw no diagnostic.
package serve

import (
	"math/rand"
	"time"
)

func wallClock() int64 { return time.Now().Unix() }

func jitter() float64 { return rand.Float64() }

func mapAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
