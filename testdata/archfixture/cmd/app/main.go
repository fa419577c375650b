// Command app is the fixture's shipped user.
package main

import (
	"fmt"

	"archfixture/internal/used"
)

func main() {
	t := used.New()
	var s used.Speaker = t
	fmt.Println(t.Used(), s.Speak())
}
