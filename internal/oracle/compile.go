package oracle

import "slicehide/internal/ir"

// MustCompile compiles a program a test embeds, panicking on error.
func MustCompile(src string) *ir.Program {
	p, err := ir.Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}
