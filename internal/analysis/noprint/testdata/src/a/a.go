// Fixture for the noprint analyzer: ad-hoc printing from a library
// package.
package a

import (
	"fmt"
	"io"
	"log"
	"os"
)

func narrate(n int) {
	fmt.Println("progress:", n)              // want `fmt.Println prints to stdout`
	fmt.Printf("done %d\n", n)               // want `fmt.Printf prints to stdout`
	fmt.Print(n)                             // want `fmt.Print prints to stdout`
	fmt.Fprintf(os.Stderr, "warn: %d\n", n)  // want `fmt.Fprintf to os.Stderr`
	fmt.Fprintln(os.Stdout, "result:", n)    // want `fmt.Fprintln to os.Stdout`
	fmt.Fprint((os.Stderr), "parenthesized") // want `fmt.Fprint to os.Stderr`
	log.Printf("restart %d", n)              // want `log.Printf in a library package`
	log.Println("sweep done")                // want `log.Println in a library package`
	println("debug", n)                      // want `built-in println writes to stderr`
	print("debug")                           // want `built-in print writes to stderr`
}

// render writes to a caller-supplied writer: the sanctioned pattern for
// library-side report rendering.
func render(w io.Writer, n int) {
	fmt.Fprintf(w, "rows: %d\n", n) // ok: caller owns the destination
	fmt.Fprintln(w, "done")         // ok
}

// format builds strings without writing anywhere.
func format(n int) string {
	return fmt.Sprintf("%d rows", n) // ok: no output stream involved
}

// printLike is a user-defined function shadowing nothing; calling it must
// not be confused with the built-in.
func printLike(s string) string { return s }

func usesPrintLike() string { return printLike("x") }
