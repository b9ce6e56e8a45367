package main

import (
	"bufio"
	"io"
	"math/rand"
	"strconv"

	"maybms/internal/census"
)

// orSetSizeWeights is the or-set size distribution of the Section 9 noise
// (mean 3.5 alternatives, as the paper measured); a uniform draw from [2,8]
// would over-entangle the Q5 join that q5_session runs.
var orSetSizeWeights = []struct {
	size int
	w    float64
}{{2, 0.35}, {3, 0.25}, {4, 0.15}, {5, 0.10}, {6, 0.07}, {7, 0.05}, {8, 0.03}}

func orSetSize(rng *rand.Rand, max int) int {
	r := rng.Float64()
	acc := 0.0
	for _, sw := range orSetSizeWeights {
		acc += sw.w
		if r < acc || sw.size >= max {
			return min(sw.size, max)
		}
	}
	return max
}

// writeCensusCSV renders a seeded census relation with or-set noise as the
// CSV maybmsd -store ingests: a header of attribute names, integer fields,
// and "a|b|c" for an or-set (the true reading first, then distinct random
// alternatives). The same (rows, density, seed) always gives the same bytes;
// the server never sees the seed, only the file.
func writeCensusCSV(w io.Writer, rows int, density float64, seed int64) (orsets int, err error) {
	cols := census.Generate(rows, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0c5))
	bw := bufio.NewWriterSize(w, 1<<20)
	for i, a := range census.Attrs {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(a.Name)
	}
	bw.WriteByte('\n')
	var num []byte
	for row := 0; row < rows; row++ {
		for ai, a := range census.Attrs {
			if ai > 0 {
				bw.WriteByte(',')
			}
			truth := cols[ai][row]
			num = strconv.AppendInt(num[:0], int64(truth), 10)
			bw.Write(num)
			if a.Domain < 2 || rng.Float64() >= density {
				continue
			}
			k := orSetSize(rng, min(int(a.Domain), census.MaxOrSet))
			seen := map[int32]bool{truth: true}
			for len(seen) < k {
				v := int32(rng.Intn(int(a.Domain)))
				if seen[v] {
					continue
				}
				seen[v] = true
				bw.WriteByte('|')
				num = strconv.AppendInt(num[:0], int64(v), 10)
				bw.Write(num)
			}
			orsets++
		}
		bw.WriteByte('\n')
	}
	return orsets, bw.Flush()
}
