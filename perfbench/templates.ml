(* The serving-params workload: the 41 workload queries outside the nine
   pattern-heavy ones, rewritten as prepared templates. Each selective
   literal of the original query became a [$] placeholder in WHERE, so every
   binding of a template shares one cached plan. Queries without a selective
   literal (BI4, BI9, BI11, QR4, QT1, QT3-5, QC1a/b) stay literal-free
   reports.

   Three templates keep their person id literal. With [p.id = $personId]
   the CBO has no selectivity for the placeholder and starts from the far
   end of the pattern: at 1200 persons IC1 then takes 130 ms instead of
   12 ms, IC9 0.4-1.1 s instead of 34 ms, IC5 0.6 s instead of 36 ms, and
   those three alone would take most of the workload's time. IC1 and IC9
   parameterize their other literal instead. IC4 and IC10 keep
   [$personId] and the same slow plan (72 and 78 ms instead of 2 and
   26 ms, nearly independent of the binding), so a placeholder-aware
   estimate shows up here.

   The order of [serving] is not the popularity rank; [ranked] is. *)

(* Where a placeholder's values come from: the distinct values of one
   property over the listed vertex types, read from the graph. *)
type domain = { vtypes : string list; prop : string }

let person_id = { vtypes = [ "Person" ]; prop = "id" }
let first_name = { vtypes = [ "Person" ]; prop = "firstName" }
let forum_id = { vtypes = [ "Forum" ]; prop = "id" }
let city = { vtypes = [ "City" ]; prop = "name" }
let country = { vtypes = [ "Country" ]; prop = "name" }
let tag = { vtypes = [ "Tag" ]; prop = "name" }
let tag_class = { vtypes = [ "TagClass" ]; prop = "name" }
let message_date = { vtypes = [ "Post"; "Comment" ]; prop = "creationDate" }
let message_length = { vtypes = [ "Post"; "Comment" ]; prop = "length" }

type t = { name : string; text : string; params : (string * domain) list }

let t name params text = { name; text; params }

let serving =
  [
    t "IC7" [ ("personId", person_id) ]
      "MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post|Comment)<-[:LIKES]-(liker:Person) \
       WHERE p.id = $personId \
       RETURN liker.id AS lid, max(m.creationDate) AS latest ORDER BY latest DESC LIMIT 20";
    t "IC8" [ ("personId", person_id) ]
      "MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post|Comment)<-[:REPLY_OF]-(c:Comment)-[:HAS_CREATOR]->(author:Person) \
       WHERE p.id = $personId \
       RETURN author.id AS aid, c.id AS cid, c.creationDate AS cd ORDER BY cd DESC LIMIT 20";
    t "QR1" [ ("city", city) ]
      "MATCH (p:Person)-[:IS_LOCATED_IN]->(c:City) WHERE c.name = $city RETURN count(*) AS cnt";
    t "BI18" [ ("personId", person_id) ]
      "MATCH (p:Person)-[:KNOWS]-(f:Person)-[:KNOWS]-(mutual:Person)-[:KNOWS]-(p) \
       WHERE p.id = $personId \
       RETURN f.id AS fid, count(mutual) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "QR6" [ ("tag", tag) ]
      "MATCH (p:Person)-[:HAS_INTEREST]->(t:Tag) WHERE t.name = $tag \
       MATCH (p)-[:KNOWS]->(f:Person)-[:HAS_INTEREST]->(t) RETURN count(*) AS cnt";
    t "BI6" [ ("tag", tag) ]
      "MATCH (t:Tag)<-[:HAS_TAG]-(m1:Post)-[:HAS_CREATOR]->(p:Person), (m1)<-[:LIKES]-(liker:Person) \
       WHERE t.name = $tag \
       RETURN p.id AS pid, count(liker) AS score ORDER BY score DESC LIMIT 10";
    t "QR5" [ ("city", city) ]
      "MATCH (p1:Person)-[:KNOWS]->(p2:Person) \
       MATCH (p1)-[:IS_LOCATED_IN]->(c:City)<-[:IS_LOCATED_IN]-(p2) WHERE c.name = $city \
       RETURN count(*) AS cnt";
    t "QR2" [ ("city", city) ]
      "MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(c:City) \
       WHERE c.name = $city AND p.browserUsed = 'Firefox' RETURN count(*) AS cnt";
    t "BI8" [ ("tag", tag) ]
      "MATCH (t:Tag)<-[:HAS_INTEREST]-(p:Person)-[:KNOWS]-(f:Person)-[:HAS_INTEREST]->(t) \
       WHERE t.name = $tag \
       RETURN p.id AS pid, count(f) AS cnt ORDER BY cnt DESC LIMIT 10";
    t "QT2" [ ("country", country) ]
      "MATCH (a)-[]->(b)-[:IS_PART_OF]->(c:Country) WHERE c.name = $country RETURN count(*) AS cnt";
    t "IC12" [ ("personId", person_id); ("tagClass", tag_class) ]
      "MATCH (p:Person)-[:KNOWS]-(f:Person)<-[:HAS_CREATOR]-(c:Comment)-[:REPLY_OF]->(po:Post)-[:HAS_TAG]->(t:Tag)-[:HAS_TYPE]->(tc:TagClass) \
       WHERE p.id = $personId AND tc.name = $tagClass \
       RETURN f.id AS fid, count(c) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "BI16" [ ("tag", tag) ]
      "MATCH (p:Person)-[:HAS_INTEREST]->(t:Tag), (p)-[:KNOWS]-(f:Person) WHERE t.name = $tag \
       RETURN p.id AS pid, count(f) AS deg ORDER BY deg DESC LIMIT 10";
    t "BI3" [ ("tagClass", tag_class) ]
      "MATCH (tc:TagClass)<-[:HAS_TYPE]-(t:Tag)<-[:HAS_TAG]-(fo:Forum)-[:HAS_MEMBER]->(p:Person) \
       WHERE tc.name = $tagClass \
       RETURN fo.title AS title, count(p) AS members ORDER BY members DESC LIMIT 20";
    t "BI2" [ ("country", country) ]
      "MATCH (t:Tag)<-[:HAS_TAG]-(m:Post|Comment)-[:IS_LOCATED_IN]->(n:Country) WHERE n.name = $country \
       RETURN t.name AS tname, count(m) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "BI14" [ ("country1", country); ("country2", country) ]
      "MATCH (p1:Person)-[:IS_LOCATED_IN]->(c1:City)-[:IS_PART_OF]->(n1:Country), \
       (p2:Person)-[:IS_LOCATED_IN]->(c2:City)-[:IS_PART_OF]->(n2:Country), \
       (p1)-[:KNOWS]-(p2) WHERE n1.name = $country1 AND n2.name = $country2 \
       RETURN p1.id AS a, p2.id AS b ORDER BY a ASC LIMIT 20";
    t "IC2" [ ("personId", person_id); ("maxDate", message_date) ]
      "MATCH (p:Person)-[:KNOWS]-(f:Person)<-[:HAS_CREATOR]-(m:Post|Comment) \
       WHERE p.id = $personId AND m.creationDate < $maxDate \
       RETURN f.id AS fid, m.id AS mid, m.creationDate AS cd ORDER BY cd DESC LIMIT 20";
    t "IC11" [ ("personId", person_id); ("country", country) ]
      "MATCH (p:Person)-[:KNOWS*1..2]-(f:Person)-[:WORK_AT]->(co:Company)-[:IS_LOCATED_IN]->(n:Country) \
       WHERE p.id = $personId AND n.name = $country \
       RETURN f.id AS fid, co.name AS cname ORDER BY fid ASC LIMIT 10";
    t "IC3" [ ("personId", person_id); ("country", country) ]
      "MATCH (p:Person)-[:KNOWS*1..2]-(f:Person)-[:IS_LOCATED_IN]->(c:City)-[:IS_PART_OF]->(n:Country) \
       WHERE p.id = $personId AND n.name = $country \
       RETURN f.id AS fid, count(*) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "BI17" [ ("city", city) ]
      "MATCH (p1:Person)-[:KNOWS]-(p2:Person)-[:KNOWS]-(p3:Person)-[:KNOWS]-(p1), \
       (p1)-[:IS_LOCATED_IN]->(c:City) WHERE c.name = $city RETURN count(*) AS cnt";
    t "BI1" [ ("maxDate", message_date) ]
      "MATCH (m:Post|Comment) WHERE m.creationDate < $maxDate \
       RETURN label(m) AS kind, count(*) AS cnt, avg(m.length) AS avgLen ORDER BY cnt DESC";
    t "BI7" [ ("tag", tag) ]
      "MATCH (t:Tag)<-[:HAS_TAG]-(m:Post)<-[:REPLY_OF]-(c:Comment)-[:HAS_TAG]->(rt:Tag) \
       WHERE t.name = $tag AND rt.name <> $tag \
       RETURN rt.name AS rtname, count(c) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "BI5" [ ("forumId", forum_id) ]
      "MATCH (fo:Forum)-[:HAS_MEMBER]->(p:Person)<-[:HAS_CREATOR]-(m:Post|Comment) \
       WHERE fo.id = $forumId \
       RETURN p.id AS pid, count(m) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "IC6" [ ("personId", person_id); ("tag", tag) ]
      "MATCH (p:Person)-[:KNOWS*1..2]-(f:Person)<-[:HAS_CREATOR]-(po:Post)-[:HAS_TAG]->(t:Tag), \
       (po)-[:HAS_TAG]->(ot:Tag) WHERE p.id = $personId AND t.name = $tag AND ot.name <> $tag \
       RETURN ot.name AS oname, count(*) AS cnt ORDER BY cnt DESC LIMIT 10";
    t "BI10" [ ("personId", person_id); ("tagClass", tag_class) ]
      "MATCH (p:Person)-[:KNOWS*1..2]-(f:Person)-[:HAS_INTEREST]->(t:Tag)-[:HAS_TYPE]->(tc:TagClass), \
       (f)<-[:HAS_CREATOR]-(m:Post)-[:HAS_TAG]->(t) WHERE p.id = $personId AND tc.name = $tagClass \
       RETURN f.id AS fid, count(m) AS score ORDER BY score DESC LIMIT 10";
    t "BI12" [ ("minLength", message_length) ]
      "MATCH (m:Post|Comment)-[:HAS_CREATOR]->(p:Person) WHERE m.length > $minLength \
       RETURN p.id AS pid, count(m) AS cnt, avg(m.length) AS avgLen ORDER BY cnt DESC LIMIT 10";
    t "BI13" [ ("country", country) ]
      "MATCH (n:Country)<-[:IS_LOCATED_IN]-(m:Post)-[:HAS_CREATOR]->(z:Person) WHERE n.name = $country \
       MATCH (z)<-[:HAS_CREATOR]-(m2:Post)<-[:LIKES]-(liker:Person) \
       RETURN z.id AS zid, count(liker) AS likes ORDER BY likes DESC LIMIT 10";
    t "QT3" [] "MATCH (a)-[:HAS_MODERATOR]->(b) RETURN count(*) AS cnt";
    t "QT5" [] "MATCH (p)-[:HAS_TYPE]->(x)-[:IS_SUBCLASS_OF]->(tc) RETURN count(*) AS cnt";
    t "QT1" [] "MATCH (a)-[]->(b:TagClass) RETURN count(*) AS cnt";
    t "QT4" [] "MATCH (f)-[:CONTAINER_OF]->(m)<-[:LIKES]-(p) RETURN count(*) AS cnt";
    t "QC1a" []
      "MATCH (p1:Person)-[:KNOWS]->(p2:Person), (p1)-[:LIKES]->(m:Post), (m)-[:HAS_CREATOR]->(p2) \
       RETURN count(*) AS cnt";
    t "BI4" []
      "MATCH (p:Person)-[:IS_LOCATED_IN]->(c:City)-[:IS_PART_OF]->(n:Country)<-[:IS_LOCATED_IN]-(m:Post)-[:HAS_CREATOR]->(p) \
       RETURN n.name AS country, count(*) AS cnt ORDER BY cnt DESC LIMIT 10";
    t "BI9" []
      "MATCH (fo:Forum)-[:CONTAINER_OF]->(po:Post)<-[:REPLY_OF*1..2]-(c:Comment) \
       RETURN fo.title AS title, count(c) AS cnt ORDER BY cnt DESC LIMIT 10";
    t "BI11" []
      "MATCH (c:Comment)-[:REPLY_OF]->(po:Post)-[:HAS_CREATOR]->(p:Person) \
       WHERE NOT (c)-[:HAS_CREATOR]->(p) \
       RETURN p.id AS pid, count(c) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "QC1b" []
      "MATCH (p1:Person)-[:KNOWS]->(p2:Person), (p1)-[:LIKES]->(m:Post|Comment), (m)-[:HAS_CREATOR]->(p2) \
       RETURN count(*) AS cnt";
    t "IC1" [ ("firstName", first_name) ]
      "MATCH (p:Person {id: 10})-[:KNOWS*1..3]-(f:Person) WHERE f.firstName = $firstName \
       RETURN f.id AS fid, f.lastName AS lastName ORDER BY fid ASC LIMIT 20";
    t "IC9" [ ("maxDate", message_date) ]
      "MATCH (p:Person {id: 6})-[:KNOWS*1..2]-(f:Person)<-[:HAS_CREATOR]-(m:Post|Comment) \
       WHERE m.creationDate < $maxDate \
       RETURN f.id AS fid, count(m) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "IC5" []
      "MATCH (p:Person {id: 8})-[:KNOWS*1..2]-(f:Person)<-[:HAS_MEMBER]-(fo:Forum)-[:CONTAINER_OF]->(po:Post)-[:HAS_CREATOR]->(f) \
       RETURN fo.title AS title, count(*) AS cnt ORDER BY cnt DESC LIMIT 20";
    t "QR4" []
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) MATCH (c)-[:IS_LOCATED_IN]->(ci:City) \
       RETURN DISTINCT ci.name AS n ORDER BY n ASC";
    t "IC4" [ ("personId", person_id) ]
      "MATCH (p:Person)-[:KNOWS]-(f:Person)<-[:HAS_CREATOR]-(po:Post)-[:HAS_TAG]->(t:Tag) \
       WHERE p.id = $personId \
       RETURN t.name AS tname, count(*) AS cnt ORDER BY cnt DESC, tname ASC LIMIT 10";
    t "IC10" [ ("personId", person_id) ]
      "MATCH (p:Person)-[:KNOWS]-(f:Person)-[:KNOWS]-(fof:Person)-[:HAS_INTEREST]->(t:Tag)<-[:HAS_INTEREST]-(p) \
       WHERE p.id = $personId AND fof.id <> $personId AND NOT (p)-[:KNOWS]-(fof) \
       RETURN fof.id AS fid, count(*) AS score ORDER BY score DESC LIMIT 10";
  ]

(* The popularity rank of the Zipf template choice, most popular first.

   The twelve IC templates lead, in the order of their frequencies in the
   LDBC SNB Interactive workload at scale factor 1 (LDBC Social Network
   Benchmark specification, Interactive workload, query mix). There a
   complex read is issued once per that many update operations, so a lower
   number is a more frequent query. The Interactive workload is LDBC's
   online-serving mix; its IC frequencies span about 10:1, close to the
   12:1 that Zipf(1) gives over twelve ranks.

   No published mix ranks the BI, QR, QT and QC templates. They follow the
   IC templates, less popular, in the order the repository's workload lists
   them. *)
let ldbc_sf1_frequency =
  [
    ("IC1", 26); ("IC2", 37); ("IC3", 69); ("IC4", 36); ("IC5", 57); ("IC6", 129);
    ("IC7", 87); ("IC8", 45); ("IC9", 157); ("IC10", 30); ("IC11", 16); ("IC12", 44);
  ]

let ranked =
  let module Q = Gopt_workloads.Queries in
  let listed = List.map (fun (q : Q.query) -> q.Q.name) (Q.comprehensive @ Q.qr @ Q.qt @ Q.qc) in
  let key t =
    match List.assoc_opt t.name ldbc_sf1_frequency with
    | Some f -> (0, f)
    | None -> (1, Option.get (List.find_index (String.equal t.name) listed))
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) serving

(* The parallel-scan-agg workload: the scan/aggregate queries of the
   repository's morsel-scaling experiment plus the two BI aggregations of
   its vectorized experiment. *)
let parallel =
  [
    t "2hop-count" []
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS c";
    t "group-by" []
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q.gender AS g, count(*) AS c, \
       avg(p.birthday) AS ab";
    t "topk" []
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p.firstName AS n, count(*) AS deg \
       ORDER BY deg DESC, n ASC LIMIT 10";
  ]
