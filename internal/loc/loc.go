// Package loc counts useful lines of code, reproducing the productivity
// methodology of Table I: "we have counted the number of useful lines of
// code that result in each version" — blank lines and comments excluded.
package loc

import (
	"fmt"
	"os"
	"strings"
)

// countSource returns the number of useful lines in Go source text: lines
// that contain code after stripping line comments, block comments and
// whitespace.
func countSource(src string) int {
	useful := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		if countLine(line, &inBlock) {
			useful++
		}
	}
	return useful
}

// countLine reports whether the line contains code, tracking block-comment
// state across lines. String literals containing comment markers are
// handled well enough for gofmt-formatted sources.
func countLine(line string, inBlock *bool) bool {
	var code strings.Builder
	i := 0
	inStr, strDelim := false, byte(0)
	for i < len(line) {
		c := line[i]
		switch {
		case *inBlock:
			if c == '*' && i+1 < len(line) && line[i+1] == '/' {
				*inBlock = false
				i += 2
				continue
			}
			i++
		case inStr:
			code.WriteByte(c)
			if c == '\\' && strDelim != '`' && i+1 < len(line) {
				code.WriteByte(line[i+1])
				i += 2
				continue
			}
			if c == strDelim {
				inStr = false
			}
			i++
		case c == '"' || c == '\'' || c == '`':
			inStr, strDelim = true, c
			code.WriteByte(c)
			i++
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			i = len(line) // line comment: discard the rest
		case c == '/' && i+1 < len(line) && line[i+1] == '*':
			*inBlock = true
			i += 2
		default:
			code.WriteByte(c)
			i++
		}
	}
	return strings.TrimSpace(code.String()) != ""
}

// countFile counts useful lines in one file.
func countFile(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("loc: %w", err)
	}
	return countSource(string(b)), nil
}

// CountFiles sums useful lines over several files.
func CountFiles(paths ...string) (int, error) {
	total := 0
	for _, p := range paths {
		n, err := countFile(p)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
