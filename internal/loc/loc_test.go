package loc

import "testing"

func TestCountSource(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"empty", "", 0},
		{"blank lines", "\n\n\n", 0},
		{"plain code", "package x\nvar a = 1\n", 2},
		{"line comments", "// a comment\ncode() // trailing\n", 1},
		{"block comment single line", "a()/* c */\nb()\n", 2},
		{"block comment only", "/* one\n two\n three */\n", 0},
		{"block comment spanning code", "a() /* start\nstill comment\nend */ b()\n", 2},
		{"comment marker in string", `s := "// not a comment"`, 1},
		{"block marker in string", `s := "/* not a comment */"`, 1},
		{"escaped quote", `s := "\"// still string"`, 1},
		{"backtick string", "s := `literal \\` + \"x\"", 1},
		{"mixed", "package x\n\n// doc\nfunc f() {\n\treturn // done\n}\n", 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := countSource(c.src); got != c.want {
				t.Fatalf("countSource(%q) = %d, want %d", c.src, got, c.want)
			}
		})
	}
}

func TestCountFileMissing(t *testing.T) {
	if _, err := countFile("/nonexistent/file.go"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCountFilesSelf(t *testing.T) {
	n, err := CountFiles("loc.go", "loc_test.go")
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Fatalf("suspiciously low count %d for this package", n)
	}
}
