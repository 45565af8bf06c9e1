"""A twisted interval with infinitely many elements, witnessed by growth.

In the (2,3,inf) Coxeter group, twist by A = N(w') for the straight
element w' = (s1 s2 s3)^3.  The interval [e, w'] in the twisted strong
order is infinite; the library cannot enumerate it, but it can show that
the number of interval elements found strictly grows as the search
budget rises, with every membership backed by a reflection-chain
certificate.

Run: python3 demos/infinite_interval.py  (about a second)
"""

from twisted_bruhat import generic


def main():
    cm = generic.coxeter_2_3_inf()
    w = generic.target_element(cm)
    word = ".".join(map(str, w.word()))
    print(f"target w' = {word}, straight: {generic.is_straight_word(w)}")
    print(f"l_A(e) = {generic.twisted_length_A(generic.identity(cm), w)}, "
          f"l_A(w') = {generic.twisted_length_A(w, w)}")
    print()
    print("budget  elements found  sample of new elements")
    rows = generic.interval_growth(cm, budgets=(6, 8, 9, 10))
    prev = None
    for row in rows:
        sample = ", ".join(row["new_elements"][:4])
        grow = "" if prev is None else ("  (+%d)" % (row["count"] - prev))
        print(f"{row['budget']:6d}  {row['count']:14d}{grow}  {sample}")
        prev = row["count"]


if __name__ == "__main__":
    main()
