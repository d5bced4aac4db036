package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a.b, c FROM t WHERE x <= 10 AND y <> 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{
		TokIdent, TokIdent, TokDot, TokIdent, TokComma, TokIdent, TokIdent,
		TokIdent, TokIdent, TokIdent, TokLE, TokNumber, TokIdent, TokIdent,
		TokNE, TokString, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	// Escaped quote inside string.
	if toks[15].Text != "it's" {
		t.Errorf("string token = %q, want \"it's\"", toks[15].Text)
	}
}

func TestLexNumbers(t *testing.T) {
	for _, s := range []string{"42", "-3", "3.25", ".5", "-0.5", "1e6", "2.5E-3"} {
		toks, err := lex(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if toks[0].Kind != TokNumber || toks[0].Text != s {
			t.Errorf("%q lexed as %v", s, toks[0])
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]TokenKind{
		"=": TokEQ, "<>": TokNE, "!=": TokNE, "<": TokLT, "<=": TokLE, ">": TokGT, ">=": TokGE,
		"(": TokLParen, ")": TokRParen, "*": TokStar,
	}
	for s, want := range cases {
		toks, err := lex(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if toks[0].Kind != want {
			t.Errorf("%q = %s, want %s", s, toks[0].Kind, want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, s := range []string{"'unterminated", "a ! b", "#"} {
		if _, err := lex(s); err == nil {
			t.Errorf("%q should fail to lex", s)
		}
	}
}

func TestTokenKindStringCoverage(t *testing.T) {
	for k := TokEOF; k <= TokGE; k++ {
		if k.String() == "unknown token" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TokenKind(99).String() != "unknown token" {
		t.Error("unknown kind name wrong")
	}
}

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100")
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar {
		t.Error("should be COUNT(*)")
	}
	if len(q.Tables) != 4 || q.Tables[0].Table != "S" || q.Tables[3].Table != "G" {
		t.Errorf("tables = %v", q.Tables)
	}
	if len(q.Where) != 4 {
		t.Fatalf("predicates = %v", q.Where)
	}
	if q.Where[0].Kind() != expr.KindJoin && q.Where[0].Left.Table != "" {
		t.Error("unqualified columns should parse with empty table")
	}
	last := q.Where[3]
	if last.RightIsColumn || last.Op != expr.OpLT || last.Const.Int() != 100 {
		t.Errorf("s < 100 parsed as %v", last)
	}
}

func TestParseProjectionAndAliases(t *testing.T) {
	q, err := Parse("SELECT R_1.a, b FROM R_1, R_2 AS x, R_3 y WHERE R_1.a = x.c")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Projection) != 2 || q.Projection[0].Table != "R_1" || q.Projection[1].Column != "b" {
		t.Errorf("projection = %v", q.Projection)
	}
	if q.Tables[1].Alias != "x" || q.Tables[2].Alias != "y" {
		t.Errorf("aliases = %v", q.Tables)
	}
	if q.Tables[1].Name() != "x" || q.Tables[0].Name() != "R_1" {
		t.Error("TableItem.Name wrong")
	}
}

func TestParseStar(t *testing.T) {
	q, err := Parse("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || q.CountStar {
		t.Error("SELECT * flags wrong")
	}
	if len(q.Where) != 0 {
		t.Error("no WHERE clause expected")
	}
}

func TestParseLiteralsAndFlip(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE 100 > t.x AND t.s = 'abc' AND t.f < 2.5 AND t.b = TRUE AND t.n <> NULL")
	if err != nil {
		t.Fatal(err)
	}
	// 100 > t.x must normalize to t.x < 100.
	p0 := q.Where[0]
	if p0.Left.Column != "x" || p0.Op != expr.OpLT || p0.Const.Int() != 100 {
		t.Errorf("flip failed: %v", p0)
	}
	if q.Where[1].Const.Str() != "abc" {
		t.Errorf("string literal: %v", q.Where[1])
	}
	if q.Where[2].Const.Float() != 2.5 {
		t.Errorf("float literal: %v", q.Where[2])
	}
	if q.Where[3].Const.BoolVal() != true {
		t.Errorf("bool literal: %v", q.Where[3])
	}
	if !q.Where[4].Const.IsNull() {
		t.Errorf("null literal: %v", q.Where[4])
	}
}

func TestParseParenthesizedComparison(t *testing.T) {
	q, err := Parse("SELECT * FROM a, b WHERE (a.x = b.y) AND (a.z > 5)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Errorf("predicates = %v", q.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM t",
		"SELECT",
		"SELECT * WHERE x = 1",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x",
		"SELECT * FROM t WHERE x =",
		"SELECT * FROM t WHERE 1 = 2",
		"SELECT * FROM t WHERE x = 1 AND",
		"SELECT * FROM t extra junk",
		"SELECT COUNT FROM t",
		"SELECT * FROM t WHERE (x = 1",
		"SELECT a. FROM t",
		"SELECT * FROM t WHERE x == 1",
		"SELECT * FROM select",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q should fail to parse", s)
		}
	}
}

func TestQueryString(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(*) FROM S, M WHERE S.s = M.m AND S.s < 100",
		"SELECT * FROM t",
		"SELECT a.x, b FROM a, c b WHERE a.x = b.y",
		"SELECT COUNT(*) FROM R, S WHERE a = b",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Round trip: rendering then reparsing gives the same structure.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("round trip unstable: %q vs %q", q.String(), q2.String())
		}
	}
}

func bindCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddTable(catalog.SimpleTable("S", 1000, map[string]float64{"s": 1000}))
	c.MustAddTable(catalog.SimpleTable("M", 10000, map[string]float64{"m": 10000}))
	c.MustAddTable(catalog.SimpleTable("T", 10, map[string]float64{"s": 10, "u": 10}))
	return c
}

func TestBindUnqualified(t *testing.T) {
	q, err := ParseAndBind("SELECT COUNT(*) FROM S, M WHERE s = m AND s < 100", bindCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Left.Table != "S" || q.Where[0].Right.Table != "M" {
		t.Errorf("binding failed: %v", q.Where[0])
	}
	if q.Where[1].Left.Table != "S" {
		t.Errorf("local predicate binding failed: %v", q.Where[1])
	}
}

func TestBindAmbiguous(t *testing.T) {
	// Column s exists in both S and T.
	if _, err := ParseAndBind("SELECT * FROM S, T WHERE s < 5", bindCatalog()); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestBindErrors(t *testing.T) {
	cat := bindCatalog()
	cases := []string{
		"SELECT * FROM nope",
		"SELECT * FROM S, S",             // duplicate name
		"SELECT * FROM S WHERE zz = 1",   // unknown column
		"SELECT * FROM S WHERE M.m = 1",  // table not in FROM
		"SELECT * FROM S WHERE S.zz = 1", // unknown column, qualified
		"SELECT zz FROM S",               // unknown projection
	}
	for _, sql := range cases {
		if _, err := ParseAndBind(sql, cat); err == nil {
			t.Errorf("%q should fail to bind", sql)
		}
	}
	if err := Bind(nil, cat); err == nil {
		t.Error("nil query should error")
	}
	q, _ := Parse("SELECT * FROM S")
	if err := Bind(q, nil); err == nil {
		t.Error("nil catalog should error")
	}
	if err := Bind(&Query{}, cat); err == nil {
		t.Error("query without tables should error")
	}
}

func TestBindAliasScope(t *testing.T) {
	q, err := ParseAndBind("SELECT a.s FROM S a, S b WHERE a.s = b.s AND b.s < 10", bindCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Left.Table != "a" || q.Where[0].Right.Table != "b" {
		t.Errorf("alias binding: %v", q.Where[0])
	}
	// Unqualified s is ambiguous across the two aliases.
	if _, err := ParseAndBind("SELECT * FROM S a, S b WHERE s < 10", bindCatalog()); err == nil {
		t.Error("ambiguous across aliases should error")
	}
}

func TestBindProjectionResolution(t *testing.T) {
	q, err := ParseAndBind("SELECT s, m FROM S, M WHERE s = m", bindCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if q.Projection[0].Table != "S" || q.Projection[1].Table != "M" {
		t.Errorf("projection binding = %v", q.Projection)
	}
}

func TestParsePreservesConstValue(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE t.x = -42")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Const.Type() != storage.TypeInt64 || q.Where[0].Const.Int() != -42 {
		t.Errorf("negative literal: %v", q.Where[0].Const)
	}
}

func TestReservedWordsRejectedAsIdent(t *testing.T) {
	if _, err := Parse("SELECT * FROM t WHERE select = 1"); err == nil {
		t.Error("reserved word as column should error")
	}
	if !strings.Contains(Parse2Err("SELECT * FROM where"), "reserved") {
		t.Error("error should mention reserved word")
	}
}

// Parse2Err returns the error text of a failed parse (empty on success).
func Parse2Err(sql string) string {
	_, err := Parse(sql)
	if err == nil {
		return ""
	}
	return err.Error()
}
