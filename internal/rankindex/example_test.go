package rankindex_test

import (
	"fmt"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankindex"
)

func Example() {
	ix := rankindex.FromValues([]float64{42, 17, 99, 17})
	fmt.Println("size:", ix.Len())
	// Equal values order by id, so the tie at 17 goes to stream 1 first.
	fmt.Println("bottom 2:", ix.KNearest(query.Bottom(), 2))
	fmt.Println("in [17,42]:", ix.CountRange(17, 42))
	ix.Set(2, 40) // stream 2 moves down past nobody but 42
	fmt.Println("nearest 2 to 41:", ix.KNearest(query.At(41), 2))
	rank, _ := ix.RankOf(3, query.Top())
	fmt.Println("rank of stream 3 from the top:", rank)
	// Output:
	// size: 4
	// bottom 2: [1 3]
	// in [17,42]: 3
	// nearest 2 to 41: [0 2]
	// rank of stream 3 from the top: 3
}
