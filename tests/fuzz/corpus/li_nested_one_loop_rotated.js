// Loop inversion rotates a loop only when its wrapper test folds. In
// each nest below exactly one loop has a literal bound: it rotates,
// while the loop bounded by the (varying, so despecialized) parameter
// keeps its header test. n = 0 exercises the zero-trip path, and the
// trip counts cross the OSR loop threshold inside both nests.
function innerConst(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    for (var j = 0; j < 6; j = j + 1) { s = s + i * j; }
  }
  return s;
}
function outerConst(n) {
  var s = 0;
  for (var i = 0; i < 5; i = i + 1) {
    for (var j = 0; j < n; j = j + 1) { s = s + i + j; }
  }
  return s;
}
var g = 0;
for (var h = 0; h < 24; h = h + 1) {
  g = g + innerConst(h % 4) * 3 + outerConst(3 + h % 3);
}
print(g);
